"""The per-level data of T: norms, kernel data and node tables, each
memoised per level."""
import math

import numpy as np
import pytest

from awspec import awop, qpolys
from awspec.awop import (QuadratureRule, kernel_truncation, make_rule,
                         weight_theta_grid)
from awspec.cli import main
from awspec.exceptions import DomainError
from awspec.qcore import QContext, qpoch, qpoch_inf
from awspec.qpolys import (JacobiLevel, _aw_params, cqjacobi_seq, norm_h,
                           on_nodes, weight_theta)

# the levels and q values of the benchmark's spectrum workload
SPECTRUM_LEVELS = [((0.4, 0.4), 0.36), ((0.3, -0.2), 0.5),
                   ((0.3 + 0.5j, 0.3 - 0.5j), 0.6),
                   ((0.3 + 0.5j, 0.3 - 0.5j), 0.8)]
# the memos of the per-level data that T reads
T_MEMOS = [qpolys._norm_table, qpolys._node_table, awop.kernel_truncation]


def _direct_norm(n, level, ctx):
    """h_n from the closed form, each degree evaluated on its own."""
    q, tol = ctx.q, ctx.tol
    al, be = level.alpha, level.beta
    c0 = (2 * math.pi * (1 - q ** (al + be + 1))
          * qpoch_inf(q ** ((al + be + 2) / 2), q, tol)
          * qpoch_inf(q ** ((al + be + 3) / 2), q, tol)
          / (qpoch_inf(q, q, tol) * qpoch_inf(q ** (al + 1), q, tol)
             * qpoch_inf(q ** (be + 1), q, tol)
             * qpoch_inf(-q ** ((al + be + 1) / 2), q, tol)
             * qpoch_inf(-q ** ((al + be + 2) / 2), q, tol)))
    cn = (qpoch(q ** (al + 1), q, n) * qpoch(q ** (be + 1), q, n)
          * qpoch(-q ** ((al + be + 3) / 2), q, n) * q ** (n * (2 * al + 1) / 2)
          / ((1 - q ** (2 * n + al + be + 1)) * qpoch(q, q, n)
             * qpoch(q ** (al + be + 1), q, n)
             * qpoch(-q ** ((al + be + 1) / 2), q, n)))
    return c0 * cn


class TestNorms:
    @pytest.mark.parametrize("ab,q", SPECTRUM_LEVELS)
    def test_ratio_table_matches_direct_formula(self, ab, q):
        level, ctx = JacobiLevel(*ab), QContext(q)
        for n in range(401):
            want = _direct_norm(n, level, ctx)
            assert abs(norm_h(n, level, ctx) - want) <= 1e-13 * abs(want)

    def test_real_level_norm_is_real(self, ctx, level):
        assert all(norm_h(n, level, ctx).imag == 0.0 for n in range(50))

    def test_negative_degree_rejected(self, ctx, level):
        with pytest.raises(DomainError):
            norm_h(-1, level, ctx)


class TestNodeTables:
    def test_same_size_different_nodes_never_share(self, ctx, level):
        r1 = make_rule(16)
        r2 = QuadratureRule(0.98 * r1.nodes + 0.03, r1.weights)
        w1 = weight_theta_grid(level, r1, ctx)
        w2 = weight_theta_grid(level, r2, ctx)
        assert not np.array_equal(w1, w2)
        for rule, w in ((r1, w1), (r2, w2)):
            xs = np.cos(rule.nodes)
            params = _aw_params(level, ctx.q)
            assert np.array_equal(w, weight_theta(params, xs, ctx).real)
            polys = on_nodes(level, rule.nodes, ctx)[1]
            assert np.array_equal(polys, np.array(cqjacobi_seq(8, level, xs, ctx)))

    def test_tables_are_read_only(self, ctx, level):
        w, polys = on_nodes(level, make_rule(32).nodes, ctx)
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            polys[0, 0] = 1.0

    def test_nodes_are_keyed_by_their_float_values(self, ctx, level):
        # the key's bytes are read back as float64 nodes
        nodes = make_rule(16).nodes.astype(np.float32)
        w, polys = on_nodes(level, nodes, ctx)
        want_w, want_polys = on_nodes(level, nodes.astype(float), ctx)
        assert np.array_equal(w, want_w) and np.array_equal(polys, want_polys)

    def test_t_keeps_no_point_table_of_its_nodes(self, ctx, level):
        # the node rows live in the node table alone; a constant g at a
        # scalar x evaluates no polynomial at any other point set
        for memo in T_MEMOS + [qpolys._point_table]:
            memo.cache_clear()
        awop.t_quadrature(lambda t: 1.0, 0.3, level, make_rule(48), ctx)
        assert qpolys._node_table.cache_info().currsize == 1
        assert qpolys._point_table.cache_info().currsize == 0

    def test_grid_matches_scalar_weight(self, ctx):
        # the grid's h-products against the literal product form at base
        # sqrt(q), evaluated one node at a time
        from oracles import _weight_w_literal
        level = JacobiLevel(0.3 + 0.5j, 0.3 - 0.5j)
        rule = make_rule(24)
        w = weight_theta_grid(level, rule, ctx)
        for th, wv in zip(rule.nodes, w):
            lit = _weight_w_literal(level, math.cos(th), ctx)
            assert abs(wv - lit * math.sin(th)) <= 1e-11 * abs(wv)


class TestMemo:
    def test_memo_stays_bounded(self):
        ctx = QContext(0.5)
        nodes = make_rule(8).nodes
        bounds = [memo.cache_info().maxsize for memo in T_MEMOS]
        assert None not in bounds
        for k in range(max(bounds) + 5):
            level = JacobiLevel(0.1 + 0.01 * k, 0.2)
            kernel_truncation(level, ctx)
            on_nodes(level, nodes, ctx)
            for memo, bound in zip(T_MEMOS, bounds):
                assert memo.cache_info().currsize <= bound

    @pytest.mark.parametrize("argv", [["kernel"], ["eigen", "--count", "1"]])
    def test_cold_and_warm_plans_give_identical_bytes(self, tmp_path, argv):
        for memo in T_MEMOS:
            memo.cache_clear()
        outs = []
        for k in range(2):
            path = tmp_path / f"out{k}.csv"
            assert main(argv + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
