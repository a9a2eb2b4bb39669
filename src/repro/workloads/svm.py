"""svm: kernel SVM classification (paper Table I, svmlight).

The classification phase of a trained RBF-kernel SVM: each test example is
scored as ``sum_i alpha_i * exp(-||sv_i - x||^2 / (2 sigma^2))`` over the
support vectors and labelled by the score's sign.  The support set and
coefficients are produced offline by :func:`train_support_vectors` (a Parzen/
kernel-mean classifier — a valid SVM dual solution shape), standing in for
svmlight's model file.

The per-example score accumulation across support vectors is loop-carried
state; the kernel evaluations (squared distance, ``exp``) are soft.
Fidelity is classification error vs. the golden run (<= 10%).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


from .base import Workload
from .signals import two_class_data

DIMS = 6
NUM_SV = 20
TRAIN_EXAMPLES = 48
TEST_EXAMPLES = 32
MAX_EXAMPLES = TRAIN_EXAMPLES
#: RBF width in (scaled-by-100) feature units
SIGMA = 180.0

SVM_SOURCE = f"""
// svm: RBF-kernel SVM classification
input int testx[{MAX_EXAMPLES * DIMS}];
input int svx[{NUM_SV * DIMS}];
input int alpha[{NUM_SV}];       // alpha_i * 1000 (fixed point)
input int params[1];             // number of test examples
output int labels[{MAX_EXAMPLES}];

const int D = {DIMS};
const int NSV = {NUM_SV};
const float GAMMA = {1.0 / (2.0 * SIGMA * SIGMA)};

void main() {{
    int n = params[0];
    for (int i = 0; i < n; i++) {{
        float score = 0.0;
        for (int s = 0; s < NSV; s++) {{
            float dist2 = 0.0;
            for (int d = 0; d < D; d++) {{
                float diff = (float)(testx[i * D + d] - svx[s * D + d]);
                dist2 += diff * diff;
            }}
            float kv = exp(0.0 - GAMMA * dist2);
            score += (float)alpha[s] * 0.001 * kv;
        }}
        if (score >= 0.0) {{
            labels[i] = 1;
        }} else {{
            labels[i] = -1;
        }}
    }}
}}
"""


def train_support_vectors(seed: int = 150) -> Tuple[List[int], List[int]]:
    """Build the support set: NUM_SV labelled points with alpha = ±1/NUM_SV.

    This is the kernel-mean (Parzen) classifier — the simplest valid setting
    of an RBF-SVM dual — trained offline, exactly as svmlight's model file is
    produced offline in the paper's setup.
    """
    points, labels = two_class_data(NUM_SV, DIMS, seed=seed)
    alpha = [int(1000 * (1.0 if l > 0 else -1.0) / NUM_SV) for l in labels]
    return [int(v) for v in points.reshape(-1)], alpha


class SvmWorkload(Workload):
    """Support vector machine (machine learning, classification error <= 10%)."""

    name = "svm"
    suite = "svmlight"
    category = "ml"
    description = "Support vector machine (Machine learning)"
    fidelity_metric = "class_error"
    fidelity_threshold = 0.10
    source = SVM_SOURCE
    train_label = f"train {TRAIN_EXAMPLES} examples"
    test_label = f"test {TEST_EXAMPLES} examples"

    def _inputs(self, n: int, seed: int) -> Dict[str, Sequence]:
        svx, alpha = train_support_vectors()
        points, _ = two_class_data(n, DIMS, seed=seed)
        return {
            "testx": [int(v) for v in points.reshape(-1)],
            "svx": svx,
            "alpha": alpha,
            "params": [n],
        }

    def train_inputs(self) -> Dict[str, Sequence]:
        return self._inputs(TRAIN_EXAMPLES, seed=171)

    def test_inputs(self) -> Dict[str, Sequence]:
        return self._inputs(TEST_EXAMPLES, seed=183)
