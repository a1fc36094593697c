"""Exactness of the placer's row-index kernels.

The placer stacks its records into one matrix and reads every node's
basis, scores and deal order from it by row index.  Those kernels replace
simpler code that walked records or broadcast a dense block; placements
depend on every bit they produce.  The replaced implementations live on
here as oracles, and each property compares a kernel against its oracle
bit-for-bit.  Values come from a small pool as well as from arbitrary
non-negative floats, so ties (equal peaks, equal service energies) and
all-zero traces are common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import asynchrony
from repro.core.placement import _FleetRows
from repro.traces import (
    InstanceRecord,
    PowerTrace,
    ServiceInstance,
    TimeGrid,
    TraceSet,
    extract_basis_traces,
    group_by_service,
    top_power_consumers,
)
from repro.traces.service import ServiceRows


# ----------------------------------------------------------------------
# oracles: the implementations the kernels replaced
# ----------------------------------------------------------------------
def oracle_score_rows(rows, basis_matrix):
    """The dense ``(c, m, T)`` broadcast."""
    row_peaks = rows.max(axis=1)
    basis_peaks = basis_matrix.max(axis=1)
    combined_peaks = (rows[:, np.newaxis, :] + basis_matrix[np.newaxis, :, :]).max(axis=2)
    numerator = row_peaks[:, np.newaxis] + basis_peaks[np.newaxis, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(combined_peaks > 0, numerator / combined_peaks, 1.0)
    return np.asarray(scores, dtype=np.float64)


def oracle_top_power_consumers(records, top_m):
    """A running per-service energy total, then a (-energy, name) sort."""
    energy = {}
    for record in records:
        energy[record.service] = (
            energy.get(record.service, 0.0) + record.training_trace.energy()
        )
    ranked = sorted(energy.items(), key=lambda item: (-item[1], item[0]))
    return [service for service, _ in ranked[:top_m]]


def oracle_basis(records, top_m):
    """Each top service's S-trace as ``total += values`` over its records."""
    services = oracle_top_power_consumers(records, top_m)
    grouped = group_by_service(records)
    rows = []
    for service in services:
        total = np.zeros(records[0].training_trace.grid.n_samples)
        for record in grouped[service]:
            total += record.training_trace.values
        rows.append(total / len(grouped[service]))
    return services, np.stack(rows)


def oracle_deal_order(records):
    """The per-record ``(-peak, instance_id)`` sort key."""
    return sorted(records, key=lambda r: (-r.training_trace.peak(), r.instance_id))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: Trace lengths below and beyond one SIMD block and one pairwise-sum
#: block (128 terms), up to a week at 30-minute steps.
LENGTHS = st.sampled_from([1, 3, 24, 130, 336])
POOL = [0.0, 1.0, 0.5, 2.0, 3.25, 1e-3]


def values(width):
    return st.one_of(
        st.sampled_from(POOL),
        st.floats(0, 1e6, allow_nan=False, allow_infinity=False, width=width),
    )


@st.composite
def score_blocks(draw):
    """A chunk of rows and a basis in one dtype, some rows all zero."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    width = 64 if dtype is np.float64 else 32
    length = draw(LENGTHS)
    c = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    rows = draw(hnp.arrays(dtype, (c, length), elements=values(width)))
    basis = draw(hnp.arrays(dtype, (m, length), elements=values(width)))
    rows[draw(hnp.arrays(np.bool_, (c,)))] = 0
    basis[draw(hnp.arrays(np.bool_, (m,)))] = 0
    return rows, basis


@st.composite
def fleets(draw, max_n=16):
    """Records of a few services whose traces repeat a few templates.

    Repeated templates give services equal energies, so the ranking's
    name tie-break is exercised; ids are short strings in shuffled order.
    """
    n = draw(st.integers(1, max_n))
    length = draw(LENGTHS)
    grid = TimeGrid(0, draw(st.sampled_from([1, 10, 30])), length)
    templates = draw(
        hnp.arrays(np.float64, (draw(st.integers(1, 4)), length), elements=values(64))
    )
    ids = draw(
        st.lists(
            st.text(alphabet="ab-09", min_size=1, max_size=4),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    records = [
        InstanceRecord(
            instance=ServiceInstance(
                instance_id=instance_id,
                service=draw(st.sampled_from(["web", "db", "cache", "ads"])),
            ),
            training_trace=PowerTrace(
                grid, templates[draw(st.integers(0, len(templates) - 1))]
            ),
        )
        for instance_id in ids
    ]
    return records


def node_rows(draw, n):
    """A node's rows: any non-empty subset of the fleet, in any order."""
    order = draw(st.permutations(range(n)))
    return np.array(order[: draw(st.integers(1, n))], dtype=np.intp)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestScoreKernelExactness:
    @given(score_blocks())
    @settings(max_examples=80, deadline=None)
    def test_plane_kernel_matches_dense_broadcast(self, block):
        rows, basis = block
        assert same_bits(
            asynchrony._score_rows(rows, basis), oracle_score_rows(rows, basis)
        )

    @given(score_blocks(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_scoring_by_row_index_matches_a_copied_subset(self, block, data):
        matrix, basis_matrix = block
        grid = TimeGrid(0, 10, matrix.shape[1])
        ids = [f"i{k}" for k in range(matrix.shape[0])]
        instances = TraceSet(grid, ids, matrix.astype(np.float64))
        basis = TraceSet(
            grid, [f"s{k}" for k in range(len(basis_matrix))], basis_matrix
        )
        rows = node_rows(data.draw, len(ids))
        chunk = data.draw(st.integers(1, 5))
        dtype = data.draw(st.sampled_from([None, np.float32]))
        by_index = asynchrony.score_matrix(
            instances, basis, rows=rows, chunk_size=chunk, dtype=dtype
        )
        copied = asynchrony.score_matrix(
            instances.subset([ids[r] for r in rows]), basis, dtype=dtype
        )
        assert same_bits(by_index, copied)


class TestBasisExactness:
    @given(fleets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_basis_of_node_rows_matches_record_loops(self, records, data):
        rows = node_rows(data.draw, len(records))
        top_m = data.draw(st.integers(1, 5))
        fleet = ServiceRows.from_records(records)
        services, matrix = oracle_basis([records[r] for r in rows], top_m)
        basis = fleet.basis(top_m, rows)
        assert basis.ids == services
        assert fleet.top_services(top_m, rows) == services
        assert same_bits(basis.matrix, matrix)

    @given(fleets(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_record_wrappers_match_record_loops(self, records, top_m):
        services, matrix = oracle_basis(records, top_m)
        assert top_power_consumers(records, top_m) == services
        basis = extract_basis_traces(records, top_m)
        assert basis.ids == services
        assert same_bits(basis.matrix, matrix)

    @given(fleets())
    @settings(max_examples=40, deadline=None)
    def test_row_energy_is_trace_energy(self, records):
        energy = ServiceRows.from_records(records).energy
        expected = [record.training_trace.energy() for record in records]
        assert same_bits(energy, np.array(expected))

    def test_tied_energies_rank_by_name(self):
        grid = TimeGrid(0, 30, 4)
        records = [
            InstanceRecord(ServiceInstance(f"{service}-{k}", service), trace)
            for service in ("zeta", "alpha", "mid")
            for k, trace in enumerate(
                [PowerTrace(grid, [1.0, 2.0, 0.5, 0.1])] * (1 if service == "mid" else 2)
            )
        ]
        assert oracle_top_power_consumers(records, 3) == ["alpha", "zeta", "mid"]
        assert top_power_consumers(records, 3) == ["alpha", "zeta", "mid"]
        assert extract_basis_traces(records, 2).ids == ["alpha", "zeta"]


class TestDealOrderExactness:
    @given(fleets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lexsort_matches_peak_then_id_sort(self, records, data):
        members = node_rows(data.draw, len(records))
        fleet = _FleetRows(records)
        ordered = [fleet.ids[row] for row in fleet.deal_order(members)]
        expected = oracle_deal_order([records[row] for row in members])
        assert ordered == [record.instance_id for record in expected]
