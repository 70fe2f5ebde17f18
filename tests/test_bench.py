import hashlib
from fractions import Fraction

import pytest

from contrascale import bench, scales
from contrascale.adjust import NotPreprocessedError, delta_adjust
from contrascale.bench import (
    ExperimentConfig,
    benchmark_enumeration,
    decision_tree_accuracy,
    run_knowledge_experiment,
    run_structure_experiment,
    sample_attributes,
)
from contrascale.cli import main
from contrascale.context import FormalContext, clarify, make_contranominal, reduce_context
from contrascale.datasets import medical_diagnosis
from contrascale.formats import dumps_cxt
from contrascale.rng import SplitMix64, derive_seed
from contrascale.tree import train_tree
from conftest import random_context


class TestSampling:
    def test_bounds(self):
        ctx = medical_diagnosis()
        assert sample_attributes(ctx, 0, 7) == ()
        assert sample_attributes(ctx, 15, 7) == tuple(range(15))
        with pytest.raises(ValueError):
            sample_attributes(ctx, 16, 7)

    def test_deterministic_per_seed(self):
        ctx = medical_diagnosis()
        first = sample_attributes(ctx, 3, 42)
        assert first == sample_attributes(ctx, 3, 42)
        assert len(first) == 3

    def test_spread_over_seeds(self):
        ctx = medical_diagnosis()
        draws = {sample_attributes(ctx, 3, seed) for seed in range(30)}
        assert len(draws) > 10


def independent_tree_accuracy(rows, features, label, split_fraction, seed):
    """Straightforward reference: same contract, separately written learner.

    Impurities are compared exactly via Fraction, like the real one, so the
    comparison is meaningful rather than ulp-sensitive.
    """
    order = list(range(len(rows)))
    SplitMix64(seed).shuffle(order)
    cut = int(len(rows) * split_fraction)
    train, test = order[:cut], order[cut:]

    def gini(sub):
        if not sub:
            return Fraction(0)
        ones = sum(rows[i][label] for i in sub)
        n = len(sub)
        return Fraction(n * n - ones * ones - (n - ones) ** 2, n * n)

    def grow(idx):
        ys = [rows[i][label] for i in idx]
        if len(set(ys)) == 1:
            return ("leaf", ys[0])
        counts = (ys.count(0), ys.count(1))
        node_gini = gini(idx)
        best = None
        for f in features:
            left = [i for i in idx if not rows[i][f]]
            right = [i for i in idx if rows[i][f]]
            if not left or not right:
                continue
            w = (len(left) * gini(left) + len(right) * gini(right)) / len(idx)
            if best is None or w < best[0]:
                best = (w, f, left, right)
        if best is None or best[0] >= node_gini:
            return ("leaf", 1 if counts[1] > counts[0] else 0)
        return ("split", best[1], grow(best[2]), grow(best[3]))

    root = grow(train)

    def predict(tree, row):
        while tree[0] == "split":
            tree = tree[3] if row[tree[1]] else tree[2]
        return tree[1]

    return sum(predict(root, rows[i]) == rows[i][label] for i in test) / len(test)


def _context(rows):
    return FormalContext(
        [f"g{i}" for i in range(len(rows))],
        [f"m{j}" for j in range(len(rows[0]))],
        rows,
    )


def _tie_heavy_rows(rng):
    """A small dense table whose duplicated rows and columns make equal splits."""
    n_rows = 2 + rng.randrange(59)
    n_cols = 2 + rng.randrange(12)
    threshold = (500, 700, 900)[rng.randrange(3)]
    pool = [
        [int(rng.randrange(1000) < threshold) for _ in range(n_cols)]
        for _ in range(1 + rng.randrange(6))
    ]
    rows = [list(pool[rng.randrange(len(pool))]) for _ in range(n_rows)]
    for _ in range(rng.randrange(3)):
        source, target = rng.randrange(n_cols), rng.randrange(n_cols)
        for row in rows:
            row[target] = row[source]
    return [tuple(row) for row in rows]


class TestDecisionTree:
    def test_constant_label_is_perfect(self):
        rows = [(1, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert decision_tree_accuracy(_context(rows), [0, 1], 2, 0.5, 3) == 1.0

    def test_label_equal_to_feature_is_perfect(self, seeded):
        rng = seeded(601)
        rows = [
            (v := rng.randrange(2), rng.randrange(2), v) for _ in range(24)
        ]
        assert decision_tree_accuracy(_context(rows), [0, 1], 2, 0.5, 9) == 1.0

    def test_label_among_features_rejected(self):
        rows = [(0, 1), (1, 0)]
        with pytest.raises(ValueError):
            decision_tree_accuracy(_context(rows), [0, 1], 1, 0.5, 0)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            decision_tree_accuracy(_context([(0, 1)]), [0], 1, 0.5, 0)

    def test_matches_independent_reimplementation(self, seeded):
        rng = seeded(602)
        cases = []
        for trial in range(10):
            rows = [
                tuple(rng.randrange(2) for _ in range(8)) for _ in range(50)
            ]
            label = rng.randrange(8)
            features = [f for f in range(8) if f != label]
            cases.append((rows, features, label, 0.5))
        # Diagnosis splits: a random attribute or a column of random bits as the
        # label, predicted from a random nonempty set of the other attributes.
        diagnosis = [tuple(int(v) for v in row) for row in medical_diagnosis().incidence_rows()]
        for trial in range(300):
            rows = [row + (rng.randrange(2),) for row in diagnosis]
            label = rng.randrange(len(rows[0]))
            others = [f for f in range(len(rows[0]) - 1) if f != label]
            picks = rng.sample_indices(len(others), 1 + rng.randrange(len(others)))
            features = sorted(others[i] for i in picks)
            cases.append((rows, features, label, (0.5, 0.7)[trial % 2]))
        for trial in range(600):
            rows = _tie_heavy_rows(rng)
            label = rng.randrange(len(rows[0]))
            features = [f for f in range(len(rows[0])) if f != label]
            cases.append((rows, features, label, (0.5, 0.7)[trial % 2]))
        for trial, (rows, features, label, fraction) in enumerate(cases):
            seed = derive_seed(1000, trial)
            mine = decision_tree_accuracy(_context(rows), features, label, fraction, seed)
            reference = independent_tree_accuracy(rows, features, label, fraction, seed)
            assert mine == reference, (trial, rows, features, label)

    def test_tree_handles_unseen_combinations(self):
        ctx = _context([(0, 0, 0), (1, 1, 1), (0, 1, 0)])
        cols = ctx.cols()
        tree = train_tree(cols, cols[2], 0b011, [0, 1])
        # Object 2 has the combination (0, 1), which no training object has.
        assert tree.accuracy(cols, cols[2], 0b100) in (0.0, 1.0)


class TestKnowledgeExperiment:
    def test_single_repetition_is_deterministic(self):
        ctx = medical_diagnosis()
        cfg = ExperimentConfig(seed=11, repetitions=1, method="adjusted")
        a = run_knowledge_experiment(ctx, cfg)
        b = run_knowledge_experiment(ctx, cfg)
        assert a == b
        assert 0.0 <= a.mean_accuracy <= 1.0

    def test_label_never_in_features(self):
        ctx = medical_diagnosis()
        for method in ("adjusted", "sampled"):
            cfg = ExperimentConfig(seed=5, repetitions=40, method=method)
            result = run_knowledge_experiment(ctx, cfg)
            for record in result.repetitions:
                assert record.label_attribute not in record.features

    def test_accuracy_bounds_and_std(self):
        ctx = medical_diagnosis()
        cfg = ExperimentConfig(seed=7, repetitions=50, method="sampled")
        result = run_knowledge_experiment(ctx, cfg)
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.repetitions)
        assert result.std_accuracy >= 0.0

    def test_sampled_arm_sizes_match_adjusted(self):
        ctx = medical_diagnosis()
        selection = set(delta_adjust(ctx, 0.5).attributes)
        cfg = ExperimentConfig(seed=3, repetitions=20, method="sampled")
        result = run_knowledge_experiment(ctx, cfg)
        for record in result.repetitions:
            expected = len(selection - {record.label_attribute})
            assert len(record.features) == expected

    def test_arms_share_labels_and_splits(self):
        ctx = medical_diagnosis()
        adjusted = run_knowledge_experiment(
            ctx, ExperimentConfig(seed=21, repetitions=25, method="adjusted")
        )
        sampled = run_knowledge_experiment(
            ctx, ExperimentConfig(seed=21, repetitions=25, method="sampled")
        )
        for a, b in zip(adjusted.repetitions, sampled.repetitions):
            assert a.label_attribute == b.label_attribute

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=0, method="other")
        with pytest.raises(ValueError):
            ExperimentConfig(seed=0, split_fraction=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=0, repetitions=0)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "023e776ac9907cf9bbe556c39e38594c8f17c4f5202337ab0033109633e99510"),
            (2, "fc11dc9dbb6eaf5247af45c0e13e8a1d2703ed2394fdddfb07f0a5e4e18b7db4"),
            (3, "19faa2abc393ed17bc2691163b3bb306d0eb3e519a98df8744969fb8f5ab5b38"),
        ],
    )
    def test_cli_output_bytes_are_pinned(self, capsys, tmp_path, seed, digest):
        # sha256 of `experiment knowledge --method both --repetitions 50` on the
        # diagnosis context: any change to a split, a tie rule or a vote moves it.
        path = tmp_path / "diagnosis.cxt"
        path.write_text(dumps_cxt(medical_diagnosis()))
        argv = ["experiment", "knowledge", "--method", "both", "--repetitions", "50"]
        assert main(argv + ["--seed", str(seed), str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_structure_metrics_match_direct_computation(self):
        ctx = medical_diagnosis()
        result = run_knowledge_experiment(
            ctx, ExperimentConfig(seed=2, repetitions=1, method="adjusted")
        )
        assert result.concept_count == 29
        assert result.base_size == 11


class TestStructureExperiment:
    def test_diagnosis_half(self):
        report = run_structure_experiment(medical_diagnosis(), "0.5", seed=1)
        assert report["concepts_original"] == 88
        assert report["concepts_adjusted"] == 29
        assert report["base_original"] == 40
        assert report["base_adjusted"] == 11
        assert report["sampled_means"]["samples"] == 10

    def test_delta_one_changes_nothing(self):
        report = run_structure_experiment(medical_diagnosis(), 1, samples=2, seed=1)
        assert report["concepts_adjusted"] == report["concepts_original"]
        assert report["base_adjusted"] == report["base_original"]

    def test_delta_zero_gives_single_concept(self):
        report = run_structure_experiment(medical_diagnosis(), 0, samples=2, seed=1)
        assert report["concepts_adjusted"] == 1
        assert report["base_adjusted"] == 0

    def test_raw_context_refused_before_any_base_walk(self, monkeypatch):
        walked = []
        monkeypatch.setattr(bench, "canonical_base", lambda ctx: walked.append(ctx))
        duplicated = FormalContext(["g", "h", "i"], ["a", "b"], [[1, 0], [1, 0], [0, 1]])
        with pytest.raises(NotPreprocessedError):
            run_structure_experiment(duplicated, "0.5")
        assert walked == []

    def test_payload_key_order(self):
        report = run_structure_experiment(medical_diagnosis(), "0.5", samples=1)
        assert list(report) == [
            "delta", "concepts_original", "concepts_adjusted",
            "base_original", "base_adjusted", "sampled_means",
        ]

    @pytest.mark.parametrize(
        "source, digest",
        [
            ("diagnosis", "92f16b7b1ccd41ea86d0e96a63cd298125c5ddae25d12d569332ef4d85264297"),
            (0, "69665e856d94c6f6ca67df8bc2a70e14abf154c53c46378095c6e253013f0b16"),
            (1, "a5c2c5098164e5185076442fc9033463e094ae0c1269fbf9b1b5e874e14ae9e4"),
            (2, "3e26f852e5a35012bc7ad3962e93823eb5b98187877426e48d7c6ef00f62c2af"),
        ],
    )
    def test_cli_output_bytes_are_pinned(self, capsys, tmp_path, source, digest):
        # sha256 of `experiment structure --delta 0.5` on the diagnosis context
        # and on clarified, reduced 42x15 contexts of density 0.7: any change to
        # a concept count, a base size or a sample moves it.
        if source == "diagnosis":
            ctx = medical_diagnosis()
        else:
            rng = SplitMix64(derive_seed(0xC0FFEE, 17, source))
            raw = random_context(rng, 42, 15, (0.7,), min_objects=42, min_attributes=15)
            ctx = reduce_context(clarify(raw)[0])[0]
        path = tmp_path / "input.cxt"
        path.write_text(dumps_cxt(ctx))
        assert main(["experiment", "structure", "--delta", "0.5", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBenchmark:
    def test_algorithms_agree_on_contranominal(self):
        report = benchmark_enumeration(make_contranominal(4))
        assert report["consistent"]
        assert report["backtracking"]["count"] == 15
        assert report["bronkerbosch"]["count"] == 15
        assert report["backtracking"]["max_dimension"] == 4

    def test_full_incidence_is_instant_and_empty(self):
        ctx = FormalContext(
            [f"g{i}" for i in range(100)],
            [f"m{j}" for j in range(100)],
            [[1] * 100 for _ in range(100)],
        )
        report = benchmark_enumeration(ctx, timeout=10)
        assert report["backtracking"]["count"] == 0
        assert report["bronkerbosch"]["count"] == 0

    def test_timeout_is_reported_not_raised(self, monkeypatch):
        ctx = make_contranominal(9)
        report = benchmark_enumeration(ctx, ("backtracking",), timeout=0.0)
        assert not report["backtracking"]["finished"]
        assert report["backtracking"]["count"] is None

        cliques = []
        maximal_cliques = scales._maximal_cliques

        def counted(adj):
            for clique in maximal_cliques(adj):
                cliques.append(clique)
                yield clique

        monkeypatch.setattr(scales, "_maximal_cliques", counted)
        report = benchmark_enumeration(medical_diagnosis(), ("bronkerbosch",), timeout=0.0)
        assert not report["bronkerbosch"]["finished"]
        assert report["bronkerbosch"]["count"] is None
        assert len(cliques) == 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            benchmark_enumeration(make_contranominal(2), ("magic",))


class TestSerialization:
    def test_json_and_csv_round_trip_fields(self, cli_stdout):
        import json

        ctx = medical_diagnosis()
        argv = ["experiment", "knowledge", "--seed", "4", "--repetitions", "3"]
        argv += ["--method", "adjusted"]
        payload = json.loads(cli_stdout(ctx, *argv))
        assert payload["config"]["seed"] == 4
        assert len(payload["repetitions"]) == 3
        csv_text = cli_stdout(ctx, *argv, "--csv")
        assert csv_text.splitlines()[0].startswith("method,mean_accuracy")
        assert csv_text.splitlines()[1].startswith("adjusted,")
