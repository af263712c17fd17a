import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from blindcal.seeding import derive_seed


def test_deterministic():
    labels = [("cell", 3), ("trial", 7)]
    assert derive_seed(42, labels) == derive_seed(42, labels)


def test_label_order_matters():
    assert derive_seed(1, [("a", 1), ("b", 2)]) != derive_seed(1, [("b", 2), ("a", 1)])


def test_chain_composition():
    assert derive_seed(derive_seed(9, [("a", 1)]), [("b", 2)]) == \
        derive_seed(9, [("a", 1), ("b", 2)])


def test_no_collisions_across_trials():
    seen = {derive_seed(0, [("trial", t)]) for t in range(10_000)}
    assert len(seen) == 10_000


def test_different_base_different_seed():
    assert derive_seed(0, [("x", 0)]) != derive_seed(1, [("x", 0)])


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.tuples(st.sampled_from(["cell", "trial", "snapshot"]),
                          st.integers(min_value=0, max_value=2**32)), max_size=4))
def test_output_is_uint64(base, labels):
    out = derive_seed(base, labels)
    assert 0 <= out < 2**64


def test_integer_types_and_wrapping():
    labels = [("trial", 3)]
    assert derive_seed(np.uint64(5), [("trial", np.int32(3))]) == derive_seed(5, labels)
    assert derive_seed(-1, labels) == derive_seed(2**64 - 1, labels)
    assert derive_seed(2**64 + 5, labels) == derive_seed(5, labels)
