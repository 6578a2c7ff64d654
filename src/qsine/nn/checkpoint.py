"""Binary checkpoint format for networks and residual chains.

Layout (little-endian):

    bytes 0-3   magic b"SGNT"
    bytes 4-7   format version (u32)
    bytes 8-11  manifest length (u32)
    manifest    UTF-8 JSON, sorted keys
    payload     raw float32 tensor data, in manifest order

A "network" manifest lists nodes (name / kind / config / src) and tensors
(node, key, kind param|state, shape). A "chain" manifest lists the byte
length of each embedded network blob; the payload is their concatenation.
Identical models serialize to identical bytes.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .layers import layer_from_config
from .network import Network

MAGIC = b"SGNT"
VERSION = 1


def _pack(manifest: dict, payload: bytes) -> bytes:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + payload


def _unpack(data: bytes) -> tuple[dict, bytes]:
    if data[:4] != MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version, mlen = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    manifest = json.loads(data[12 : 12 + mlen].decode("utf-8"))
    return manifest, data[12 + mlen :]


def network_to_bytes(net: Network, meta: dict | None = None) -> bytes:
    nodes = [
        {"name": n.name, "kind": n.layer.kind, "config": n.layer.config(), "src": n.src}
        for n in net.nodes
    ]
    tensors = []
    chunks = []
    for n in net.nodes:
        for group, kind in ((n.layer.params, "param"), (n.layer.state, "state")):
            for key, val in group.items():
                tensors.append({"node": n.name, "key": key, "kind": kind,
                                "shape": list(val.shape)})
                chunks.append(np.ascontiguousarray(val, dtype="<f4").tobytes())
    manifest = {"kind": "network", "meta": meta or {}, "nodes": nodes, "tensors": tensors}
    return _pack(manifest, b"".join(chunks))


def network_from_bytes(data: bytes) -> tuple[Network, dict]:
    manifest, payload = _unpack(data)
    if manifest["kind"] != "network":
        raise ValueError(f"expected a network checkpoint, got {manifest['kind']!r}")
    net = Network()
    for spec in manifest["nodes"]:
        net.add(spec["name"], layer_from_config(spec["kind"], spec["config"]), spec["src"])
    offset = 0
    for t in manifest["tensors"]:
        size = int(np.prod(t["shape"])) if t["shape"] else 1
        arr = np.frombuffer(payload, dtype="<f4", count=size, offset=offset)
        offset += size * 4
        arr = arr.reshape(t["shape"]).astype(np.float32)
        layer = net.get_layer(t["node"])
        target = layer.params if t["kind"] == "param" else layer.state
        if t["key"] not in target:
            raise ValueError(f"tensor {t['node']}.{t['key']} not in rebuilt layer")
        target[t["key"]] = arr
    net.pack()
    return net, manifest["meta"]


def save_network(net: Network, path, meta: dict | None = None):
    Path(path).write_bytes(network_to_bytes(net, meta))


def load_network(path) -> tuple[Network, dict]:
    return network_from_bytes(Path(path).read_bytes())


def chain_to_bytes(nets: list[Network], meta: dict | None = None) -> bytes:
    blobs = [network_to_bytes(n) for n in nets]
    manifest = {"kind": "chain", "meta": meta or {},
                "block_lengths": [len(b) for b in blobs]}
    return _pack(manifest, b"".join(blobs))


def chain_from_bytes(data: bytes) -> tuple[list[Network], dict]:
    manifest, payload = _unpack(data)
    if manifest["kind"] != "chain":
        raise ValueError(f"expected a chain checkpoint, got {manifest['kind']!r}")
    nets = []
    offset = 0
    for length in manifest["block_lengths"]:
        net, _ = network_from_bytes(payload[offset : offset + length])
        nets.append(net)
        offset += length
    return nets, manifest["meta"]


def save_chain(nets: list[Network], path, meta: dict | None = None):
    Path(path).write_bytes(chain_to_bytes(nets, meta))


def load_chain(path) -> tuple[list[Network], dict]:
    return chain_from_bytes(Path(path).read_bytes())
