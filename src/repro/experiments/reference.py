"""Reference numbers from the paper, used for paper-vs-measured reporting.

These are the headline values of the tables the reproduction targets.  The
``benchmarks/bench_table*`` / ``bench_fig*`` files print them next to the
measured values; they are *not* used as assertions because the synthetic
dataset stand-ins shift absolute accuracies — only the qualitative shape is
asserted.
"""

from __future__ import annotations

from typing import Dict

#: Table 3 (GCN node classification): accuracy %, average bits, GBitOPs.
PAPER_TABLE3: Dict[str, Dict[str, Dict[str, float]]] = {
    "cora": {
        "FP32": {"accuracy": 81.5, "bits": 32, "gbitops": 16.11},
        "DQ INT8": {"accuracy": 81.7, "bits": 8, "gbitops": 4.03},
        "DQ INT4": {"accuracy": 78.3, "bits": 4, "gbitops": 2.01},
        "A2Q": {"accuracy": 80.9, "bits": 1.70, "gbitops": 8.94},
        "MixQ(λ=-ε)": {"accuracy": 81.6, "bits": 7.69, "gbitops": 3.95},
        "MixQ(λ=0.1)": {"accuracy": 77.7, "bits": 5.82, "gbitops": 3.35},
        "MixQ(λ=1)": {"accuracy": 68.7, "bits": 3.84, "gbitops": 1.68},
    },
    "citeseer": {
        "FP32": {"accuracy": 71.1, "bits": 32, "gbitops": 50.68},
        "DQ INT8": {"accuracy": 71.0, "bits": 8, "gbitops": 12.67},
        "DQ INT4": {"accuracy": 66.9, "bits": 4, "gbitops": 6.33},
        "A2Q": {"accuracy": 70.6, "bits": 1.87, "gbitops": 8.96},
        "MixQ(λ=-ε)": {"accuracy": 69.0, "bits": 6.84, "gbitops": 12.44},
        "MixQ(λ=0.1)": {"accuracy": 66.5, "bits": 4.49, "gbitops": 5.18},
        "MixQ(λ=1)": {"accuracy": 60.9, "bits": 3.44, "gbitops": 4.23},
    },
    "pubmed": {
        "FP32": {"accuracy": 78.9, "bits": 32, "gbitops": 41.7},
        "DQ INT4": {"accuracy": 62.5, "bits": 4, "gbitops": 5.21},
        "A2Q": {"accuracy": 77.5, "bits": 1.90, "gbitops": 8.94},
        "MixQ(λ=-ε)": {"accuracy": 78.3, "bits": 7.36, "gbitops": 10.34},
        "MixQ(λ=0.1)": {"accuracy": 77.3, "bits": 5.49, "gbitops": 6.89},
        "MixQ(λ=1)": {"accuracy": 71.0, "bits": 4.09, "gbitops": 4.85},
    },
    "ogb-arxiv": {
        "FP32": {"accuracy": 71.7, "bits": 32, "gbitops": 692.87},
        "DQ INT4": {"accuracy": 65.4, "bits": 4, "gbitops": 86.96},
        "A2Q": {"accuracy": 71.1, "bits": 2.65, "gbitops": 141.93},
        "MixQ(λ=-ε)": {"accuracy": 70.6, "bits": 8.0, "gbitops": 167.50},
        "MixQ(λ=0.1)": {"accuracy": 70.0, "bits": 7.08, "gbitops": 167.50},
        "MixQ(λ=1)": {"accuracy": 69.3, "bits": 7.08, "gbitops": 167.50},
    },
}

#: Table 4 (Cora, native MixQ vs MixQ + DQ).
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "MixQ(λ=-ε)": {"accuracy": 81.6, "bits": 7.69, "gbitops": 3.95},
    "MixQ(λ=-ε) + DQ": {"accuracy": 81.8, "bits": 7.69, "gbitops": 4.01},
    "MixQ(λ=0.1)": {"accuracy": 77.7, "bits": 5.82, "gbitops": 3.35},
    "MixQ(λ=0.1) + DQ": {"accuracy": 79.9, "bits": 6.02, "gbitops": 3.35},
    "MixQ(λ=1)": {"accuracy": 68.7, "bits": 3.84, "gbitops": 1.68},
    "MixQ(λ=1) + DQ": {"accuracy": 72.3, "bits": 3.69, "gbitops": 1.68},
}

#: Table 5 (A²Q vs MixQ + DQ).
PAPER_TABLE5: Dict[str, Dict[str, Dict[str, float]]] = {
    "cora": {"A2Q": {"accuracy": 80.9, "gbitops": 8.94},
             "MixQ + DQ": {"accuracy": 81.8, "gbitops": 4.01}},
    "citeseer": {"A2Q": {"accuracy": 70.6, "gbitops": 8.96},
                 "MixQ + DQ": {"accuracy": 66.2, "gbitops": 6.01}},
    "pubmed": {"A2Q": {"accuracy": 77.5, "gbitops": 8.94},
               "MixQ + DQ": {"accuracy": 77.6, "gbitops": 6.88}},
}

#: Table 6 (GraphSAGE).
PAPER_TABLE6: Dict[str, Dict[str, Dict[str, float]]] = {
    "cora": {"FP32": {"accuracy": 76.7, "bits": 32, "gbitops": 7.8},
             "MixQ(λ=0.1)": {"accuracy": 78.1, "bits": 6.9, "gbitops": 1.94},
             "MixQ(λ=1)": {"accuracy": 75.4, "bits": 4.9, "gbitops": 0.9}},
    "citeseer": {"FP32": {"accuracy": 65.6, "bits": 32, "gbitops": 19.5},
                 "MixQ(λ=0.1)": {"accuracy": 65.8, "bits": 6.3, "gbitops": 4.2},
                 "MixQ(λ=1)": {"accuracy": 66.6, "bits": 4.7, "gbitops": 2.1}},
    "pubmed": {"FP32": {"accuracy": 77.9, "bits": 32, "gbitops": 5.6},
               "MixQ(λ=0.1)": {"accuracy": 77.8, "bits": 6.9, "gbitops": 1.2},
               "MixQ(λ=1)": {"accuracy": 77.9, "bits": 5.4, "gbitops": 0.7}},
}

#: Table 7 (large-scale GraphSAGE; metric is accuracy except ROC-AUC for proteins).
PAPER_TABLE7: Dict[str, Dict[str, Dict[str, float]]] = {
    "reddit": {"FP32": {"metric": 86.72, "bits": 32, "gbitops": 1103},
               "MixQ(λ=-ε)": {"metric": 85.50, "bits": 6.91, "gbitops": 129},
               "MixQ(λ=0.1)": {"metric": 86.01, "bits": 5.70, "gbitops": 111},
               "MixQ(λ=1)": {"metric": 84.86, "bits": 5.21, "gbitops": 80}},
    "ogb-proteins": {"FP32": {"metric": 0.63, "bits": 32, "gbitops": 3369},
                     "MixQ(λ=-ε)": {"metric": 0.61, "bits": 6.1, "gbitops": 1299},
                     "MixQ(λ=0.1)": {"metric": 0.61, "bits": 2.8, "gbitops": 643},
                     "MixQ(λ=1)": {"metric": 0.59, "bits": 2.4, "gbitops": 391}},
    "ogb-products": {"FP32": {"metric": 66.60, "bits": 32, "gbitops": 1862},
                     "MixQ(λ=-ε)": {"metric": 66.36, "bits": 7.5, "gbitops": 425},
                     "MixQ(λ=0.1)": {"metric": 63.43, "bits": 7.2, "gbitops": 403},
                     "MixQ(λ=1)": {"metric": 60.75, "bits": 5.0, "gbitops": 305}},
    "igb": {"FP32": {"metric": 71.47, "bits": 32, "gbitops": 14},
            "MixQ(λ=-ε)": {"metric": 67.25, "bits": 6.91, "gbitops": 1.5},
            "MixQ(λ=0.1)": {"metric": 67.59, "bits": 6.18, "gbitops": 1.4},
            "MixQ(λ=1)": {"metric": 66.79, "bits": 5.45, "gbitops": 1.2}},
}

#: Table 8 (GIN graph classification, 10-fold CV).
PAPER_TABLE8: Dict[str, Dict[str, Dict[str, float]]] = {
    "imdb-b": {"FP32": {"accuracy": 75.2, "gbitops": 5.47},
               "DQ INT4": {"accuracy": 68.6, "gbitops": 0.68},
               "A2Q": {"accuracy": 74.6, "gbitops": 0.87},
               "MixQ(λ*)": {"accuracy": 74.0, "gbitops": 1.27},
               "MixQ(λ=1)": {"accuracy": 69.6, "gbitops": 1.06}},
    "proteins": {"FP32": {"accuracy": 70.5, "gbitops": 7.62},
                 "DQ INT4": {"accuracy": 73.1, "gbitops": 0.95},
                 "A2Q": {"accuracy": 74.0, "gbitops": 1.05},
                 "MixQ(λ*)": {"accuracy": 73.1, "gbitops": 1.35},
                 "MixQ(λ=1)": {"accuracy": 72.8, "gbitops": 1.25}},
    "dd": {"FP32": {"accuracy": 73.8, "gbitops": 55.41},
           "MixQ(λ*)": {"accuracy": 73.7, "gbitops": 8.92},
           "MixQ(λ=1)": {"accuracy": 69.6, "gbitops": 9.02}},
    "reddit-b": {"FP32": {"accuracy": 89.54, "gbitops": 75.68},
                 "MixQ(λ*)": {"accuracy": 90.7, "gbitops": 33.63},
                 "MixQ(λ=1)": {"accuracy": 89.3, "gbitops": 24.34}},
    "reddit-m": {"FP32": {"accuracy": 52.2, "gbitops": 83.70},
                 "MixQ(λ*)": {"accuracy": 53.7, "gbitops": 35.62},
                 "MixQ(λ=1)": {"accuracy": 51.7, "gbitops": 25.46}},
}

#: Table 9 (CSL).
PAPER_TABLE9: Dict[str, Dict[str, float]] = {
    "FP32": {"accuracy": 99.4, "bits": 32},
    "QAT - INT2": {"accuracy": 24.4, "bits": 2},
    "QAT - INT4": {"accuracy": 94.4, "bits": 4},
    "MixQ(λ=-ε)": {"accuracy": 95.0, "bits": 3.9},
    "MixQ(λ=0)": {"accuracy": 94.1, "bits": 3.5},
}

#: Table 10 (random assignment ablation on Cora/CiteSeer/PubMed).
PAPER_TABLE10: Dict[str, Dict[str, Dict[str, float]]] = {
    "cora": {"Random": {"accuracy": 36.9, "bits": 4.56},
             "Random+INT8": {"accuracy": 57.4, "bits": 4.97},
             "MixQ(λ=1)": {"accuracy": 68.7, "bits": 3.84}},
    "citeseer": {"Random": {"accuracy": 46.1, "bits": 4.86},
                 "Random+INT8": {"accuracy": 54.2, "bits": 4.96},
                 "MixQ(λ=1)": {"accuracy": 60.9, "bits": 3.44}},
    "pubmed": {"Random": {"accuracy": 45.5, "bits": 4.60},
               "Random+INT8": {"accuracy": 50.8, "bits": 4.79},
               "MixQ(λ=1)": {"accuracy": 71.0, "bits": 4.09}},
}

#: Headline compression claims (Sections 5.3 / 5.4).
PAPER_HEADLINES = {
    "node_classification_bitops_reduction": 5.5,
    "graph_classification_bitops_reduction": 5.1,
    "figure1_spearman_correlation": 0.64,
    "figure8_pearson_correlations": {"amd": 0.59, "apple_m1": 0.95, "intel_xeon": 0.70},
}
