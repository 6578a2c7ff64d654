"""Binary checkpoint format for networks and residual chains.

Layout (little-endian):

    bytes 0-3   magic b"SGNT"
    bytes 4-7   format version (u32)
    bytes 8-11  manifest length (u32)
    manifest    UTF-8 JSON, sorted keys
    payload     raw float32 tensor data, in manifest order

A "network" manifest lists nodes (name / kind / config / src) and tensors
(node, key, kind param|state, shape). A "chain" manifest lists the byte
length of each embedded network blob; the payload is their concatenation,
and must end where the last blob does.
Identical models serialize to identical bytes. Loading rebuilds the network
with zero weights, packs it once and copies each tensor into its place; the
manifest must list every tensor of the rebuilt network, and the payload must
end where the last tensor does.
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
    net.pack()
    listed = {(t["node"], t["key"]) for t in manifest["tensors"]}
    for n in net.nodes:
        for key in (*n.layer.params, *n.layer.state):
            if (n.name, key) not in listed:
                raise ValueError(f"tensor {n.name}.{key} missing from the manifest")
    offset = 0
    for t in manifest["tensors"]:
        layer = net.get_layer(t["node"])
        name = f"tensor {t['node']}.{t['key']}"
        # a param is a view of flat_params, a state array the layer's own
        dst = (layer.params if t["kind"] == "param" else layer.state).get(t["key"])
        if dst is None:
            raise ValueError(f"{name} not in rebuilt layer")
        if list(dst.shape) != t["shape"]:
            raise ValueError(f"{name} has shape {t['shape']}, the rebuilt "
                             f"layer {list(dst.shape)}")
        if offset + dst.nbytes > len(payload):
            raise ValueError(f"payload ends inside {name}")
        dst[...] = np.frombuffer(payload, "<f4", dst.size, offset).reshape(dst.shape)
        offset += dst.nbytes
    if offset != len(payload):
        raise ValueError(f"payload has {len(payload) - offset} bytes after the last tensor")
    return net, manifest["meta"]


def save_network(net: Network, path, meta: dict | None = None):
    Path(path).write_bytes(network_to_bytes(net, meta))


def _load(path, from_bytes):
    """from_bytes of the file's bytes; a malformed file's error names it."""
    data = Path(path).read_bytes()
    try:
        return from_bytes(data)
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {what}") from exc


def load_network(path) -> tuple[Network, dict]:
    return _load(path, network_from_bytes)


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
    if offset != len(payload):
        raise ValueError(f"payload has {len(payload) - offset} bytes after the last block")
    return nets, manifest["meta"]


def save_chain(nets: list[Network], path, meta: dict | None = None):
    Path(path).write_bytes(chain_to_bytes(nets, meta))


def load_chain(path) -> tuple[list[Network], dict]:
    return _load(path, chain_from_bytes)
