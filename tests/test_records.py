"""Result-record serialization: the JSON bytes of nested report payloads."""

import dataclasses
import math

import numpy as np

from momentcurve.geometry import ConeReport, OverlapReport
from momentcurve.records import write_json
from momentcurve.sharpness import BroadNarrowReport


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: OverlapReport
    pair: tuple
    table: dict


def _nested_payload():
    overlap = OverlapReport(threshold=20.0, l_count=np.int64(64), samples_used=9984,
                            pairs_checked=2784, far_pairs_checked=512,
                            max_multiplicity=np.int32(3), violations=0)
    cone = ConeReport(case="1", r=8192.0, beta1=None, angular_halfwidth=0.0390625,
                      radial_width=0.078125, cap_count=81, caps_touched=16, max_caps_per_l=2,
                      l_count=64, samples_used=448, skipped_l=0, violations=0,
                      max_angular_ratio=0.22556637314949057,
                      max_radial_ratio=0.13729901384452886)
    return {
        "case1": {"scales": {"r_k": 4096.0, "r_next": np.float64(8192.0)}, "report": cone},
        "bn": BroadNarrowReport(max_ratio=np.float64(0.1), n_bands=16, e_sep=2.0,
                                samples_used=10, broad_count=3, narrow_count=7,
                                triple_count=286),
        "outer": _Outer(inner=overlap, pair=(np.int64(2), [cone.case, None]),
                        table={3: np.arange(2), "k": (np.float32(0.5), math.inf)}),
    }


# The bytes write_json produced for _nested_payload() when every dataclass was
# first expanded by dataclasses.asdict and the copy then walked a second time.
PINNED_NESTED_JSON = (
    '{\n  "bn": {\n    "broad_count": 3,\n    "e_sep": 2.0,\n    "max_ratio": 0.1,\n'
    '    "n_bands": 16,\n    "narrow_count": 7,\n    "samples_used": 10,\n'
    '    "triple_count": 286\n  },\n  "case1": {\n    "report": {\n'
    '      "angular_halfwidth": 0.0390625,\n      "beta1": null,\n      "cap_count": 81,\n'
    '      "caps_touched": 16,\n      "case": "1",\n      "l_count": 64,\n'
    '      "max_angular_ratio": 0.22556637314949057,\n      "max_caps_per_l": 2,\n'
    '      "max_radial_ratio": 0.13729901384452886,\n      "r": 8192.0,\n'
    '      "radial_width": 0.078125,\n      "samples_used": 448,\n      "skipped_l": 0,\n'
    '      "violations": 0\n    },\n    "scales": {\n      "r_k": 4096.0,\n'
    '      "r_next": 8192.0\n    }\n  },\n  "outer": {\n    "inner": {\n'
    '      "far_pairs_checked": 512,\n      "l_count": 64,\n      "max_multiplicity": 3,\n'
    '      "pairs_checked": 2784,\n      "samples_used": 9984,\n      "threshold": 20.0,\n'
    '      "violations": 0\n    },\n    "pair": [\n      2,\n      [\n        "1",\n'
    '        null\n      ]\n    ],\n    "table": {\n      "3": [\n        0,\n        1\n'
    '      ],\n      "k": [\n        0.5,\n        Infinity\n      ]\n    }\n  }\n}\n'
)


def test_nested_report_payload_bytes_are_pinned(tmp_path):
    path = tmp_path / "payload.json"
    write_json(str(path), _nested_payload())
    assert path.read_bytes() == PINNED_NESTED_JSON.encode()
