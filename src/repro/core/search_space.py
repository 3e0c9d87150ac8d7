"""Bit-width search-space utilities: enumeration, random baselines, Pareto fronts.

These back the ablations of the paper:

* Figure 2 enumerates (a sample of) the ``|B|^9`` assignments of a two-layer
  GCN and plots accuracy against average bit-width;
* Figure 3 histograms the per-component bit-widths of the Pareto front;
* Table 10 compares MixQ-GNN against *random* assignments, with and without
  an INT8 constraint on the prediction output.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.quant.bitops import average_bits
from repro.quant.qmodules import BitWidthAssignment, conv_component_names

# ``conv_component_names`` lives beside the conv dispatch table it reads; it is
# re-exported because the CLI, perfbench and the test fixtures import it here.
__all__ = ["assignment_average_bits", "bit_width_histogram", "conv_component_names",
           "enumerate_assignments", "pareto_front", "random_assignment",
           "sample_assignments"]


def enumerate_assignments(component_names: Sequence[str],
                          bit_choices: Sequence[int],
                          limit: Optional[int] = None) -> Iterator[BitWidthAssignment]:
    """Yield assignments from the full cartesian product ``B^{components}``.

    ``limit`` caps the number of yielded assignments (the full grid for a
    two-layer GCN with three choices has 3^9 = 19,683 entries).
    """
    count = 0
    for combination in itertools.product(bit_choices, repeat=len(component_names)):
        yield dict(zip(component_names, (int(b) for b in combination)))
        count += 1
        if limit is not None and count >= limit:
            return


def random_assignment(component_names: Sequence[str], bit_choices: Sequence[int],
                      rng: np.random.Generator,
                      output_component: Optional[str] = None,
                      output_bits: Optional[int] = None) -> BitWidthAssignment:
    """A uniformly random assignment; optionally pin the prediction output.

    ``output_component`` / ``output_bits`` implement the "Random + INT8"
    baseline of Table 10, which fixes the last function's output to 8 bits.
    """
    assignment = {name: int(rng.choice(bit_choices)) for name in component_names}
    if output_component is not None and output_bits is not None:
        if output_component not in assignment:
            raise KeyError(f"{output_component!r} is not a component of this architecture")
        assignment[output_component] = int(output_bits)
    return assignment


def sample_assignments(component_names: Sequence[str], bit_choices: Sequence[int],
                       num_samples: int, rng: np.random.Generator,
                       unique: bool = True) -> List[BitWidthAssignment]:
    """Sample ``num_samples`` random assignments (optionally without repeats)."""
    seen: set = set()
    assignments: List[BitWidthAssignment] = []
    attempts = 0
    while len(assignments) < num_samples and attempts < 50 * num_samples:
        attempts += 1
        assignment = random_assignment(component_names, bit_choices, rng)
        key = tuple(assignment[name] for name in component_names)
        if unique and key in seen:
            continue
        seen.add(key)
        assignments.append(assignment)
    return assignments


def assignment_average_bits(assignment: BitWidthAssignment) -> float:
    """Average bit-width of one assignment (the x-axis of Figure 2)."""
    return average_bits(assignment.values())


def pareto_front(points: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of the Pareto-optimal points for (cost, quality) pairs.

    A point is on the front when no other point has both lower cost (average
    bit-width) and higher quality (accuracy).  Ties on both axes keep the
    first occurrence.
    """
    indices = sorted(range(len(points)), key=lambda i: (points[i][0], -points[i][1]))
    front: List[int] = []
    best_quality = -np.inf
    for index in indices:
        cost, quality = points[index]
        if quality > best_quality:
            front.append(index)
            best_quality = quality
    return front


def bit_width_histogram(assignments: Iterable[BitWidthAssignment],
                        component_names: Sequence[str],
                        bit_choices: Sequence[int]) -> Dict[str, Dict[int, int]]:
    """Per-component histogram of chosen bit-widths (Figure 3)."""
    histogram: Dict[str, Dict[int, int]] = {
        name: {int(bits): 0 for bits in bit_choices} for name in component_names}
    for assignment in assignments:
        for name in component_names:
            bits = int(assignment[name])
            if bits not in histogram[name]:
                histogram[name][bits] = 0
            histogram[name][bits] += 1
    return histogram
