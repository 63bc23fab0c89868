"""Per-layer spans around opcert's public functions, recorded from outside.

The library is not instrumented.  ``Tracer.install`` replaces each public
function at the place where callers look it up (a module attribute or a
layer-class method) with a wrapper that times the call, and ``uninstall``
puts the originals back.  Wrapping only ``opcert.linalg.spectral_norm``
would see no calls, because the layers call the name bound in
``opcert.operator_net``; hence the list of lookup sites below.

Spans are aggregated per name as they close (calls, wall, self time,
raised exceptions), because a fixed-point run opens thousands of them.
A span's self time is its wall time minus the wall time of the spans
nested in it.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from opcert import fixed_point, multiscale, operator_net, training, transforms

_CLASSES = (operator_net.DenseLayer, operator_net.SpectralLayer,
            operator_net.WaveletGainLayer)
_METHODS = ("preactivation", "backward_linear", "lipschitz_upper")

# (owner, attribute, span name): every place a workload's calls look a
# traced function up.  One span name may have several sites.
SITES = [
    (operator_net, "spectral_norm", "linalg.spectral_norm"),
    (transforms, "fft", "transforms.fft"),  # so inverse_fft's inner call nests
    (operator_net, "fft", "transforms.fft"),
    (multiscale, "fft", "transforms.fft"),
    (operator_net, "inverse_fft", "transforms.inverse_fft"),
    (multiscale, "inverse_fft", "transforms.inverse_fft"),
    (multiscale, "dwt", "transforms.dwt"),
    (multiscale, "idwt", "transforms.idwt"),
    (multiscale, "approximate", "multiscale.approximate"),
    (operator_net, "normalize_to_contraction", "operator_net.normalize_to_contraction"),
    (training, "normalize_to_contraction", "operator_net.normalize_to_contraction"),
    (operator_net, "certify_lipschitz", "operator_net.certify_lipschitz"),
    (training, "certify_lipschitz", "operator_net.certify_lipschitz"),
    (fixed_point, "certify_lipschitz", "operator_net.certify_lipschitz"),
    (fixed_point, "forward", "operator_net.forward"),
    (operator_net, "forward_batch", "operator_net.forward_batch"),
    (training, "forward_batch", "operator_net.forward_batch"),
    (fixed_point, "iterate_to_fixed_point", "fixed_point.iterate_to_fixed_point"),
    (training, "run_experiment", "training.run_experiment"),
] + [
    (cls, method, f"operator_net.{cls.__name__}.{method}")
    for cls in _CLASSES for method in _METHODS
]


class Tracer:
    """Aggregated spans for the calls made while it is installed."""

    def __init__(self):
        # name -> [calls, wall_s, self_s, raised]
        self.stats: dict[str, list] = {}
        self.fft_points = 0
        self.norm_digests: set[bytes] = set()
        self._open: list[float] = []  # nested wall time of each open span
        self._saved: list[tuple] = []

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def install(self) -> None:
        for owner, attr, name in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _note_args(self, name, args) -> None:
        if name == "transforms.fft":
            self.fft_points += int(np.size(args[0]))
        elif name == "linalg.spectral_norm":
            data = np.ascontiguousarray(args[0]).tobytes()
            self.norm_digests.add(hashlib.blake2b(data, digest_size=16).digest())

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            self._note_args(name, args)
            if self._open:
                # Book-keeping is charged to no layer's self time.
                self._open[-1] += time.perf_counter() - t0
            self._open.append(0.0)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                wall = time.perf_counter() - start
                nested = self._open.pop()
                stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                stat[0] += 1
                stat[1] += wall
                stat[2] += wall - nested
                stat[3] += raised
                if self._open:
                    self._open[-1] += wall
        return traced
