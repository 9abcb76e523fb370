from fractions import Fraction

import pytest
from reference_matrices import glued_lattice_oracle

from anyonlat.gluing import glue_selfdual_8
from anyonlat.lattices import cartan_a, e8_gram
from anyonlat.metric_groups import BudgetExceededError
from anyonlat.weights import coset_minima, extremality_score, minimum_nonzero_norm


def test_rank23_pair():
    m1 = coset_minima([[2, 1], [1, 12]])
    m2 = coset_minima([[4, 1], [1, 6]])
    assert len(m1) == len(m2) == 23
    assert min(v for v in m1.values() if v) == Fraction(1, 23)
    assert min(v for v in m2.values() if v) == Fraction(2, 23)
    # Same model, so the weight multisets agree mod 1.
    assert sorted(v % 1 for v in m1.values()) == sorted(v % 1 for v in m2.values())


def test_rank_one():
    assert sorted(coset_minima([[2]]).values()) == [0, Fraction(1, 4)]
    # (4): cosets 0, +-1, 2 have shortest representatives 0, +-1, 2, so the
    # minima are 0, 1/8, 1/8, 1/2.
    assert sorted(coset_minima([[4]]).values()) == [0, Fraction(1, 8), Fraction(1, 8), Fraction(1, 2)]


def test_su3_weights():
    m = coset_minima([[2, 1], [1, 2]])
    assert sorted(m.values()) == [0, Fraction(1, 3), Fraction(1, 3)]


def test_minimum_norms():
    assert minimum_nonzero_norm([[2]]) == 2
    assert minimum_nonzero_norm(e8_gram().gram) == 2
    assert minimum_nonzero_norm(glued_lattice_oracle([[2]], glue_selfdual_8([[2]]))[0]) == 2
    assert minimum_nonzero_norm(cartan_a(5).gram) == 2
    assert minimum_nonzero_norm([[4, 0], [0, 6]]) == 4


def test_extremality_scores():
    assert extremality_score(e8_gram().gram) == 2
    assert extremality_score([[2]]) == 0
    # N = 23 anyon types, rank 2: 23/2 + 253 - 6 * sum(h).
    m1 = coset_minima([[2, 1], [1, 12]])
    expected = Fraction(23 * 2, 4) + Fraction(23 * 22, 2) - 6 * sum(m1.values())
    assert extremality_score([[2, 1], [1, 12]]) == expected


def test_weight_congruence_internal_check():
    # coset_minima itself asserts h = q2/2 mod 1; run a spread of matrices.
    for gram in ([[2, 1], [1, 4]], [[6, 1], [1, 4]], [[2, 0, 1], [0, 2, -1], [1, -1, 2]]):
        minima = coset_minima(gram)
        assert all(v >= 0 for v in minima.values())


def test_budget_and_definiteness_errors():
    with pytest.raises(ValueError):
        coset_minima([[0, 2], [2, 0]])
    with pytest.raises(BudgetExceededError):
        coset_minima([[2, 1], [1, 12]], budget=5)


@pytest.mark.parametrize("gram", [[[2, 1], [1, 3]], [[1, 0], [0, 2]]])
def test_coset_minima_refuses_an_odd_matrix(gram):
    """`discriminant_form` leaves evenness to its caller, so `coset_minima`
    refuses an odd, positive-definite Gram matrix itself."""
    with pytest.raises(ValueError, match="must be even"):
        coset_minima(gram)


def test_rank_limit_comes_before_the_elimination():
    # -A_21 is not positive-definite, but the rank limit is checked first.
    from anyonlat.weights import RANK_LIMIT

    rank = RANK_LIMIT + 1
    gram = [[-x for x in row] for row in cartan_a(rank).gram]
    with pytest.raises(BudgetExceededError) as err:
        coset_minima(gram)
    assert str(err.value) == (f"coset enumeration (coset_minima): rank {rank} exceeds the fixed limit "
                              f"RANK_LIMIT = {RANK_LIMIT}; no flag raises it")


def test_coset_budget_comes_before_the_discriminant_form(monkeypatch):
    import anyonlat.weights

    def refuse(gram):
        raise AssertionError("discriminant_form ran past an exceeded coset budget")

    monkeypatch.setattr(anyonlat.weights, "discriminant_form", refuse)
    with pytest.raises(BudgetExceededError) as err:
        coset_minima([[2, 1], [1, 12]], budget=5)
    assert str(err.value) == "coset enumeration (coset_minima): 23 cosets exceed budget 5; raise it with --budget"


def test_node_budget_stops_the_search_on_a_disguised_basis(monkeypatch, tmp_path, capsys):
    """A badly reduced basis of A_10 makes the search try far more values
    than A_10 itself (152k against 5.7k for its coset minima, 10.6k against
    261 for its shortest vector); past the fixed budget each caller raises a
    budget error that names it and the node count, and the CLI exits 2."""
    import json
    import random
    import re

    from reference_matrices import disguised

    from anyonlat import weights
    from anyonlat.cli import main

    monkeypatch.setattr(weights, "NODE_BUDGET", 8000)
    message = r"lattice search \({}\): (\d+) nodes exceed the fixed node budget NODE_BUDGET = 8000; no flag raises it"
    plain = cartan_a(10).gram
    hidden = disguised(plain, random.Random(20), 20)
    assert coset_minima(plain) and minimum_nonzero_norm(plain) == 2
    for call, caller in ((coset_minima, "coset_minima"), (minimum_nonzero_norm, "minimum_nonzero_norm")):
        with pytest.raises(BudgetExceededError) as err:
            call(hidden)
        assert int(re.fullmatch(message.format(caller), str(err.value)).group(1)) > 8000
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps({"gram": hidden}))
    assert main(["weights", str(path)]) == 2
    assert re.fullmatch("error: " + message.format("coset_minima") + "\n", capsys.readouterr().err)
