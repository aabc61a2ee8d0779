"""Parameter counting over the detector variants.

The expected totals below were frozen from hand derivations of each
layer stack (conv: k*k*c_in*c_out + c_out, fc: n_in*n_out + n_out,
batch-norm affine pairs counted as fixed) and cross-checked against a
reference implementation of both backbones.
"""
import pytest

from depthkit.arch import (
    build_architecture,
    count_parameters,
    propagate_shapes,
)

FULL = ((3, 600, 800), 300)

# (variant, backbone) -> (trainable, fixed)
EXPECTED = {
    ("baseline", "vgg16"): (136_818_079, 260_160),
    ("proc-EC", "vgg16"): (151_797_407, 520_320),
    ("prior-late", "vgg16"): (273_636_053, 520_320),
    ("hdha-split", "vgg16"): (181_230_751, 1_037_184),
    ("baseline", "resnet101"): (47_134_367, 327_744),
    ("proc-EC", "resnet101"): (76_462_751, 632_960),
    ("prior-late", "resnet101"): (94_268_629, 655_488),
    ("hdha-split", "resnet101"): (133_020_319, 1_224_576),
}


def _report(variant, backbone, **kwargs):
    graph = build_architecture(variant, backbone, **kwargs)
    return count_parameters(graph, propagate_shapes(graph, *FULL))


@pytest.mark.parametrize(("variant", "backbone"), sorted(EXPECTED))
def test_frozen_parameter_counts(variant, backbone):
    trainable, fixed = EXPECTED[(variant, backbone)]
    report = _report(variant, backbone)
    assert report.trainable == trainable
    assert report.fixed == fixed
    assert report.total == trainable + fixed


def test_two_stream_late_fusion_doubles_the_network():
    # two detection pipelines sharing only the final head input concat:
    # totals sit within a whisker of twice the single-stream net
    single = _report("proc-LC", "vgg16").total
    double = _report("prior-late", "vgg16").total
    assert double > 2 * _report("baseline", "vgg16").total * 0.99
    # the second region-proposal stage is the only extra piece
    rpn_cost = (9 * 512 * 512 + 512) + (512 * 18 + 18) + (512 * 36 + 36)
    assert double == single + rpn_cost


def test_row_sums_match_report_totals():
    report = _report("proc-MC", "resnet101")
    assert report.trainable == sum(r.trainable for r in report.rows)
    assert report.fixed == sum(r.fixed for r in report.rows)


def test_frozen_stages_count_as_fixed():
    report = _report("baseline", "vgg16")
    # conv1/conv2 stage weights never train
    frozen = [r for r in report.rows if r.node.startswith("rgb_bb/conv1")
              or r.node.startswith("rgb_bb/conv2")]
    assert frozen
    assert all(r.trainable == 0 and r.fixed > 0 for r in frozen)


def test_trainable_under_prefix():
    report = _report("baseline", "vgg16")
    head = report.trainable_under("head/")
    fc6 = 25088 * 4096 + 4096
    fc7 = 4096 * 4096 + 4096
    assert head == fc6 + fc7


def test_early_fusion_cost_identities():
    base = _report("baseline", "vgg16").total
    raw = _report("raw-EC", "vgg16").total
    proc = _report("proc-EC", "vgg16").total
    depth_proj = 1 * 512 + 512
    reduce_1x1 = 1024 * 512 + 512
    # raw depth rides the rgb stream: one projection and one reduction
    assert raw == base + depth_proj + reduce_1x1
    # an encoded depth image earns its own full convolution stack
    vgg16_conv_stack = 14_714_688
    assert proc == base + vgg16_conv_stack + reduce_1x1


def test_parameter_free_nodes_have_no_rows():
    report = _report("baseline", "resnet101")
    for row in report.rows:
        assert row.total > 0
        assert row.kind not in ("relu", "maxpool", "flatten", "channel_concat")


def test_csv_has_total_footer(tmp_path):
    report = _report("baseline", "vgg16")
    path = tmp_path / "params.csv"
    report.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,kind,trainable,fixed"
    assert lines[-1] == f"TOTAL,,{report.trainable},{report.fixed}"


def test_param_rows_are_deterministic(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    _report("hdha-split", "resnet101").to_csv(str(pa))
    _report("hdha-split", "resnet101").to_csv(str(pb))
    assert pa.read_bytes() == pb.read_bytes()
