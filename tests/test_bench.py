import hashlib
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from contrascale import adjust, bench, cli, context, lattice, scales
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
from contrascale.context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    clarify,
    indices_to_mask,
    make_contranominal,
    reduce_context,
)
from contrascale.datasets import medical_diagnosis
from contrascale.formats import dumps_cxt
from contrascale.rng import SplitMix64, derive_seed
from contrascale.tree import train_tree
from contrascale.lattice import canonical_base
from conftest import (
    count_context_calls,
    count_rule_closures,
    count_walk_reads,
    random_context,
    reduced_42x15,
)


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


class _Node:
    """A node of the grower below; a leaf predicts ``value`` and has no ``feature``."""

    def __init__(self, feature=None, left=None, right=None, value=0):
        self.feature, self.left, self.right, self.value = feature, left, right, value


def _node_tree(cols, labels, features, sample):
    """A node-per-subtree grower: one call per node, purity tested on entry."""
    n = sample.bit_count()
    ones = (sample & labels).bit_count()
    zeros = n - ones
    if not zeros or not ones:
        return _Node(value=int(ones > zeros))
    best_num, best_den, best_feature = zeros * zeros + ones * ones, n, None
    for feature in features:
        right = sample & cols[feature]
        n1 = right.bit_count()
        n0 = n - n1
        if not n0 or not n1:
            continue
        o1 = (right & labels).bit_count()
        o0 = ones - o1
        z0, z1 = n0 - o0, n1 - o1
        num = (z0 * z0 + o0 * o0) * n1 + (z1 * z1 + o1 * o1) * n0
        den = n0 * n1
        if num * best_den > best_num * den:
            best_num, best_den, best_feature = num, den, feature
    if best_feature is None:
        return _Node(value=int(ones > zeros))
    col = cols[best_feature]
    return _Node(
        feature=best_feature,
        left=_node_tree(cols, labels, features, sample & ~col),
        right=_node_tree(cols, labels, features, sample & col),
    )


def _node_hits(node, cols, labels, objs):
    if node.feature is None:
        return (objs & labels if node.value else objs & ~labels).bit_count()
    col = cols[node.feature]
    return _node_hits(node.left, cols, labels, objs & ~col) + _node_hits(
        node.right, cols, labels, objs & col
    )


def _shape(node):
    """A node tree in the form ``train_tree`` grows: ``(feature, left, right)`` or a leaf's bool."""
    if node.feature is None:
        return bool(node.value)
    return (node.feature, _shape(node.left), _shape(node.right))


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

    @pytest.mark.parametrize(
        "features, label, bad",
        [([14], -1, -1), ([-1], 14, -1), ([0], 15, 15), ([0, 15], 1, 15)],
    )
    def test_attribute_index_out_of_range_rejected(self, features, label, bad):
        # A negative index would read a column from the end, so label -1
        # would train on attribute 14 itself.
        with pytest.raises(ValueError, match=rf"attribute index {bad} out of range"):
            decision_tree_accuracy(medical_diagnosis(), features, label, 0.5, 0)

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

    def test_matches_the_node_grower(self, seeded):
        rng = seeded(603)
        cases = []
        for trial in range(400):
            rows = _tie_heavy_rows(rng) if trial % 2 else [
                tuple(rng.randrange(2) for _ in range(6)) for _ in range(1 + rng.randrange(40))
            ]
            cases.append(rows)
        # A constant label column, for a pure root.
        cases += [[(1, 0, 1), (0, 1, 1), (1, 1, 1)], [(0, 1, 0), (1, 1, 0)]]
        kinds = Counter()
        for rows in cases:
            ctx = _context(rows)
            cols = ctx.cols()
            full = (1 << len(rows)) - 1
            label = rng.randrange(len(rows[0]))
            others = [f for f in range(len(rows[0])) if f != label]
            picks = rng.sample_indices(len(others), rng.randrange(len(others) + 1))
            for features in (others, sorted(others[i] for i in picks), []):
                # The whole table, one object, and a random nonempty sample.
                one = 1 << rng.randrange(len(rows))
                for sample in (full, one, rng.randrange(full) + 1):
                    labels = cols[label]
                    ones = (sample & labels).bit_count()
                    kinds["pure" if ones in (0, sample.bit_count()) else "impure"] += 1
                    expected = _node_tree(cols, labels, features, sample)
                    tree = train_tree(cols, labels, sample, features)
                    assert tree._root == _shape(expected), (rows, label, features, sample)
                    for scored in (full, full ^ sample or full, one):
                        assert tree.accuracy(cols, labels, scored) == (
                            _node_hits(expected, cols, labels, scored) / scored.bit_count()
                        )
        assert kinds["pure"] > 1000 and kinds["impure"] > 1000, kinds

    def test_deep_chain_trains_and_scores(self):
        # Feature i holds the objects above i and the labels alternate, so
        # each split peels off one object: the tree is 1,099 levels deep,
        # deeper than the interpreter's default recursion limit of 1,000.
        n = 1100
        full = (1 << n) - 1
        cols = [full & ~((1 << (i + 1)) - 1) for i in range(n - 1)]
        labels = sum(1 << g for g in range(1, n, 2))
        tree = train_tree(cols, labels, full, range(n - 1))
        node = tree._root
        for i in range(n - 1):
            feature, left, node = node
            assert (feature, left) == (i, bool(i & 1))
        assert node is bool((n - 1) & 1)
        assert tree.accuracy(cols, labels, full) == 1.0
        assert tree.accuracy(cols, full ^ labels, full) == 0.0

    def test_tree_handles_unseen_combinations(self):
        ctx = _context([(0, 0, 0), (1, 1, 1), (0, 1, 0)])
        cols = ctx.cols()
        tree = train_tree(cols, cols[2], 0b011, [0, 1])
        # Object 2 has the combination (0, 1), which no training object has.
        assert tree.accuracy(cols, cols[2], 0b100) in (0.0, 1.0)

    def test_empty_sample_refused(self):
        ctx = _context([(0, 0, 0), (1, 1, 1), (0, 1, 0)])
        cols = ctx.cols()
        with pytest.raises(ValueError, match="^cannot train on an empty sample$"):
            train_tree(cols, cols[2], 0, [0, 1])
        tree = train_tree(cols, cols[2], 0b011, [0, 1])
        with pytest.raises(ValueError, match="^cannot score an empty sample$"):
            tree.accuracy(cols, cols[2], 0)


def _defined_split(n, split_fraction, seed):
    """The train and test masks of a whole shuffle of ``range(n)``, cut at ``floor(n * f)``."""
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    cut = int(n * split_fraction)
    return indices_to_mask(order[:cut]), indices_to_mask(order[cut:])


class TestSplitMasks:
    def test_equals_a_whole_shuffle_cut(self):
        for n in range(2, 65):
            for cut in sorted({1, n // 2, n - 1}):
                fraction = (cut + 0.5) / n
                for s in range(50):
                    seed = derive_seed(604, n, s)
                    train, test = bench._split_masks(n, fraction, seed)
                    assert (train, test) == _defined_split(n, fraction, seed), (n, cut, s)
                    assert train.bit_count() == cut

    def test_errors_keep_their_messages_and_order(self):
        for n in (0, 1):
            for fraction in (0.5, 0.0, 2.0):
                with pytest.raises(ValueError, match="^need at least 2 objects to split$"):
                    bench._split_masks(n, fraction, 1)
        # floor(n * f) is 0 (empty train) or n (empty test), or out of range.
        for n, fraction in ((2, 0.4), (14, 0.05), (14, 0.0), (3, 1.0), (14, 1.5), (14, -0.1)):
            with pytest.raises(ValueError, match="^split leaves an empty train or test set$"):
                bench._split_masks(n, fraction, 1)


class TestKnowledgeExperiment:
    def test_single_repetition_is_deterministic(self):
        ctx = medical_diagnosis()
        cfg = ExperimentConfig(seed=11, repetitions=1, method="adjusted")
        (a,) = run_knowledge_experiment(ctx, cfg)
        (b,) = run_knowledge_experiment(ctx, cfg)
        assert a == b
        assert 0.0 <= a.mean_accuracy <= 1.0

    def test_label_never_in_features(self):
        ctx = medical_diagnosis()
        for method in ("adjusted", "sampled"):
            cfg = ExperimentConfig(seed=5, repetitions=40, method=method)
            (result,) = run_knowledge_experiment(ctx, cfg)
            for record in result.repetitions:
                assert record.label_attribute not in record.features

    def test_accuracy_bounds_and_std(self):
        ctx = medical_diagnosis()
        cfg = ExperimentConfig(seed=7, repetitions=50, method="sampled")
        (result,) = run_knowledge_experiment(ctx, cfg)
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.repetitions)
        assert result.std_accuracy >= 0.0

    def test_sampled_arm_sizes_match_adjusted(self):
        ctx = medical_diagnosis()
        selection = set(delta_adjust(ctx, 0.5).attributes)
        cfg = ExperimentConfig(seed=3, repetitions=20, method="sampled")
        (result,) = run_knowledge_experiment(ctx, cfg)
        for record in result.repetitions:
            expected = len(selection - {record.label_attribute})
            assert len(record.features) == expected

    def test_arms_share_labels_and_splits(self):
        ctx = medical_diagnosis()
        (adjusted,) = run_knowledge_experiment(
            ctx, ExperimentConfig(seed=21, repetitions=25, method="adjusted")
        )
        (sampled,) = run_knowledge_experiment(
            ctx, ExperimentConfig(seed=21, repetitions=25, method="sampled")
        )
        for a, b in zip(adjusted.repetitions, sampled.repetitions):
            assert a.label_attribute == b.label_attribute

    def test_both_equals_adjusted_then_sampled(self, seeded):
        contexts = [medical_diagnosis()] + [reduced_42x15(seeded(25, s)) for s in range(3)]
        for ctx in contexts:
            both = ExperimentConfig(seed=13, repetitions=12, method="both")
            arms = tuple(
                run_knowledge_experiment(
                    ctx, ExperimentConfig(seed=13, repetitions=12, method=method)
                )[0]
                for method in ("adjusted", "sampled")
            )
            assert run_knowledge_experiment(ctx, both) == arms
            assert [r.config.method for r in arms] == ["adjusted", "sampled"]

    @pytest.mark.parametrize("repetitions", [1, 7])
    def test_both_arms_draw_each_label_and_split_once(self, monkeypatch, cli_stdout, repetitions):
        draws = Counter()
        derive = bench.derive_seed

        def counted_derive(master, index, stream):
            draws[stream] += 1
            return derive(master, index, stream)

        streams = bench._stream_seeds

        def counted_streams(master, count, *tags):
            for seeds in streams(master, count, *tags):
                draws.update(tags)
                yield seeds

        adjusted = []
        adjust = bench.delta_adjust

        def counted_adjust(*args, **kwargs):
            adjusted.append(args[0])
            return adjust(*args, **kwargs)

        monkeypatch.setattr(bench, "derive_seed", counted_derive)
        monkeypatch.setattr(bench, "_stream_seeds", counted_streams)
        monkeypatch.setattr(bench, "delta_adjust", counted_adjust)
        argv = ["experiment", "knowledge", "--method", "both", "--seed", "5"]
        cli_stdout(medical_diagnosis(), *argv, "--repetitions", str(repetitions))
        assert len(adjusted) == 1
        assert draws == {
            bench._STREAM_LABEL: repetitions,
            bench._STREAM_SPLIT: repetitions,
            bench._STREAM_FEATURES: repetitions,
            # The sampled arm's structure means: ten attribute samples.
            bench._STREAM_STRUCTURE: 10,
        }

    def test_config_validation(self):
        assert ExperimentConfig(seed=0, method="both").method == "both"
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
        (result,) = run_knowledge_experiment(
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
        # Every form of one delta gives the same payload, its "delta" included.
        for delta in ("1/2", 0.5, Fraction(1, 2), Decimal("0.5")):
            assert run_structure_experiment(medical_diagnosis(), delta, seed=1) == report

    def test_delta_one_changes_nothing(self):
        report = run_structure_experiment(medical_diagnosis(), 1, samples=2, seed=1)
        assert report["concepts_adjusted"] == report["concepts_original"]
        assert report["base_adjusted"] == report["base_original"]

    def test_no_samples_refused(self):
        with pytest.raises(ValueError, match="^need at least one sampling seed$"):
            run_structure_experiment(medical_diagnosis(), "0.5", samples=0)

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
        # A delta that does not parse is refused before delta_adjust walks.
        monkeypatch.setattr(adjust, "influence", lambda ctx, **kw: walked.append(ctx))
        with pytest.raises(ValueError, match="zero denominator"):
            run_structure_experiment(medical_diagnosis(), "1/0")
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


def _count_apply_selection(monkeypatch) -> list:
    """Count calls to ``apply_selection`` through every module that binds it."""
    calls = []

    def counted(sel):
        calls.append(sel)
        return apply_selection(sel)

    for module in (adjust, bench, cli, context, lattice, scales):
        if vars(module).get("apply_selection") is apply_selection:
            monkeypatch.setattr(module, "apply_selection", counted)
    return calls


def _visited_on_subcontexts(ctx, attribute_sets) -> int:
    """Sets the lectic walks of the subcontexts on ``attribute_sets`` visit."""
    visited = 0
    for attributes in attribute_sets:
        sel = SubcontextSelection(ctx, tuple(range(ctx.n_objects)), tuple(attributes))
        base = canonical_base(apply_selection(sel))
        visited += base.concepts + len(base)
    return visited


class TestHowTheExperimentsWalk:
    """The experiments walk restricted attribute sets on the context itself."""

    @pytest.fixture
    def inputs(self, seeded, tmp_path):
        contexts = [medical_diagnosis()] + [reduced_42x15(seeded(24, s)) for s in range(2)]
        paths = []
        for i, ctx in enumerate(contexts):
            path = tmp_path / f"input{i}.cxt"
            path.write_text(dumps_cxt(ctx))
            paths.append(str(path))
        return list(zip(contexts, paths))

    def test_structure_walks_the_original_once_and_copies_no_subcontext(
        self, capsys, monkeypatch, inputs
    ):
        expected = []
        for ctx, _ in inputs:
            chosen = delta_adjust(ctx, Fraction(1, 2)).attributes
            sampled = [
                sample_attributes(ctx, len(chosen), derive_seed(0, j, bench._STREAM_STRUCTURE))
                for j in range(10)
            ]
            expected.append(
                _visited_on_subcontexts(ctx, [range(ctx.n_attributes), chosen, *sampled])
            )
        bases = []
        monkeypatch.setattr(bench, "canonical_base", lambda ctx: bases.append(ctx) or canonical_base(ctx))
        selections = _count_apply_selection(monkeypatch)
        calls = count_context_calls(monkeypatch)
        reads = count_walk_reads(monkeypatch)
        closures = count_rule_closures(monkeypatch)
        for (ctx, path), visited in zip(inputs, expected):
            bases.clear()
            calls.clear()
            reads.clear()
            closures.clear()
            assert main(["experiment", "structure", "--delta", "0.5", path]) == 0
            assert bases == [ctx]
            assert selections == []
            # Each of the 12 walks derives its root's intent through
            # intent_mask, then one intent per candidate it tests, in its own
            # loop; nothing else derives.  Only a candidate that differs from
            # its intent is closed under L.
            assert calls == Counter(intent_mask=12)
            assert 12 + reads["candidates"] >= visited
            assert closures["close"] < reads["candidates"]
        capsys.readouterr()

    def test_knowledge_copies_no_subcontext(self, capsys, monkeypatch, inputs):
        expected = []
        for ctx, _ in inputs:
            selection = delta_adjust(ctx, Fraction(1, 2)).attributes
            size = -(-ctx.n_attributes // 2)
            sampled = [
                sample_attributes(ctx, size, derive_seed(3, j, bench._STREAM_STRUCTURE))
                for j in range(10)
            ]
            expected.append(_visited_on_subcontexts(ctx, [selection, *sampled]))
        selections = _count_apply_selection(monkeypatch)
        calls = count_context_calls(monkeypatch)
        reads = count_walk_reads(monkeypatch)
        closures = count_rule_closures(monkeypatch)
        for (ctx, path), visited in zip(inputs, expected):
            calls.clear()
            reads.clear()
            closures.clear()
            argv = ["experiment", "knowledge", "--seed", "3", "--repetitions", "4", "--method", "both"]
            assert main([*argv, path]) == 0
            assert selections == []
            # 11 walks: the adjusted selection's and 10 sampled ones.
            assert calls == Counter(intent_mask=11)
            assert 11 + reads["candidates"] >= visited
            assert closures["close"] < reads["candidates"]
        capsys.readouterr()


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
        # The budget is spent before the conflict graph is built, so no clique
        # search starts.
        assert cliques == []

    def test_timeout_bounds_the_conflict_graph_build(self, monkeypatch):
        # The clock reads 0, 1, 2, ... s.  A budget of 2.5 s is spent at the
        # third check, ahead of the graph's third vertex row.
        ctx = medical_diagnosis()
        vertices = len(scales.to_bipartite(ctx).edges)
        readings = iter(range(100))
        monkeypatch.setattr(bench, "perf_counter", lambda: float(next(readings)))
        tests = Counter()
        incident = FormalContext.incident

        def counted(self, g, m):
            tests["incident"] += 1
            return incident(self, g, m)

        monkeypatch.setattr(FormalContext, "incident", counted)
        monkeypatch.setattr(scales, "_maximal_cliques", lambda adj: pytest.fail("search started"))
        report = benchmark_enumeration(ctx, ("bronkerbosch",), timeout=2.5)
        assert report["bronkerbosch"] == {
            "seconds": 4.0, "finished": False, "count": None, "max_dimension": None
        }
        # The vertices come from one test per cell.  Two rows hold fewer than
        # 2 * vertices pairs, each tested at most twice.
        cells = ctx.n_objects * ctx.n_attributes
        assert cells < tests["incident"] < cells + 4 * vertices

    def test_timeout_bounds_the_clique_search(self, monkeypatch):
        # The clock reads 0, 1, 2, ... s and the graph's rows take one check
        # each.  A budget half a second past them is spent at the second step
        # of the clique search, which is too shallow to hold a maximal clique.
        ctx = medical_diagnosis()
        vertices = len(scales.to_bipartite(ctx).edges)
        readings = iter(range(vertices + 10))
        monkeypatch.setattr(bench, "perf_counter", lambda: float(next(readings)))
        monkeypatch.setattr(
            scales, "_clique_subsets", lambda clique: pytest.fail("a maximal clique was reached")
        )
        report = benchmark_enumeration(ctx, ("bronkerbosch",), timeout=vertices + 1.5)
        assert report["bronkerbosch"] == {
            "seconds": vertices + 3.0, "finished": False, "count": None, "max_dimension": None
        }

    def test_root_pivot_takes_no_intersection(self):
        # At the root p holds every vertex, so the pivot is a vertex of largest
        # degree; one adj[v] & p per vertex there ran between two budget checks.
        ctx = medical_diagnosis()
        vertices = scales.to_bipartite(ctx).edges
        intersections = Counter()

        class CountedSet(set):
            def __and__(self, other):
                intersections["and"] += 1
                return set.__and__(self, other)

        def adjacency(kind):
            adj = [kind() for _ in vertices]
            for i, row in enumerate(scales._conflict_rows(ctx, vertices)):
                adj[i].update(row)
                for j in row:
                    adj[j].add(i)
            return adj

        class Stop(Exception):
            pass

        steps = []

        def before_step():
            steps.append(intersections["and"])
            if len(steps) == 2:
                raise Stop

        with pytest.raises(Stop):
            list(scales._maximal_cliques(adjacency(CountedSet), before_step))
        assert steps[1] < len(vertices)

        def intersecting(adj):
            # The same search with the pivot taken by intersection at every step.
            def expand(r, p, x):
                if not p and not x:
                    yield frozenset(r)
                    return
                pivot = max(p | x, key=lambda v: len(adj[v] & p))
                for v in sorted(p - adj[pivot]):
                    yield from expand(r | {v}, p & adj[v], x & adj[v])
                    p.remove(v)
                    x.add(v)

            yield from expand(set(), set(range(len(adj))), set())

        adj = adjacency(set)
        assert list(scales._maximal_cliques(adj)) == list(intersecting(adj))

    def test_unknown_algorithm_rejected(self, monkeypatch):
        def no_walk(ctx):
            raise AssertionError("a walk started before every name was checked")

        monkeypatch.setattr(bench, "_family_sizes", no_walk)
        for names in (("magic",), ("backtracking", "magic")):
            with pytest.raises(ValueError, match="^unknown algorithm 'magic'$"):
                benchmark_enumeration(make_contranominal(2), names)

    def test_a_name_given_twice_runs_once(self, monkeypatch):
        walks = []

        def counted(ctx):
            walks.append(ctx)
            return scales._family_sizes(ctx)

        monkeypatch.setattr(bench, "_family_sizes", counted)
        report = benchmark_enumeration(make_contranominal(2), ("backtracking", "backtracking"))
        assert len(walks) == 1
        assert report["backtracking"]["count"] == 3


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
