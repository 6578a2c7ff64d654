"""qsine: detecting and estimating multiple sinusoids in coarsely quantized frames.

Library layout:

* :mod:`qsine.tones`     IQ frame layout, tone synthesis and tone cancellation
* :mod:`qsine.signals`   labels, noise, normalization, datasets
* :mod:`qsine.quantize`  uniform b-bit quantizer and Bussgang linearization
* :mod:`qsine.losses`    detection / estimation losses and Chamfer metrics
* :mod:`qsine.thresholds` analytic learning thresholds (constant-estimator losses)
* :mod:`qsine.classical` periodogram estimation and AIC/MDL counting
* :mod:`qsine.nn`        small numpy network engine
* :mod:`qsine.signalnet` detection + residual-chain estimator models, training
* :mod:`qsine.harness`   command-line toolkit (``qsine`` entry point)
"""

__version__ = "0.1.0"
