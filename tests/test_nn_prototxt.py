"""Tests for Caffe prototxt parsing/emission and grouped convolutions."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.cost import total_flops
from repro.nn.layers import (
    ConvLayer,
    DropoutLayer,
    ExitHead,
    FCLayer,
    InceptionModule,
    InputLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    ResidualBlock,
    SoftmaxLayer,
)
from repro.nn.layers.base import LayerShapeError
from repro.nn.model import Model
from repro.nn.network import Network
from repro.nn.prototxt import (
    PrototxtError,
    network_from_prototxt,
    network_to_prototxt,
    parse_text,
)
from repro.nn.zoo import (
    agenet,
    googlenet,
    googlenet_exits,
    smallnet,
    smallnet_exits,
)
from repro.sim import SeededRng


class TestTextFormat:
    def test_scalar_fields(self):
        root = parse_text('name: "net"\ncount: 3\nratio: 0.5\nflag: true\n')
        assert root["name"] == ["net"]
        assert root["count"] == [3]
        assert root["ratio"] == [0.5]
        assert root["flag"] == [True]

    def test_nested_messages(self):
        root = parse_text("layer { name: \"c\" param { num: 1 } }")
        layer = root["layer"][0]
        assert layer["name"] == ["c"]
        assert layer["param"][0]["num"] == [1]

    def test_repeated_fields(self):
        root = parse_text('bottom: "a"\nbottom: "b"\n')
        assert root["bottom"] == ["a", "b"]

    def test_comments_ignored(self):
        root = parse_text("# header\ncount: 1 # trailing\n")
        assert root["count"] == [1]

    def test_enums(self):
        root = parse_text("pool: MAX\n")
        assert root["pool"] == ["MAX"]

    def test_block_without_colon(self):
        root = parse_text("shape { dim: 1 dim: 3 }")
        assert root["shape"][0]["dim"] == [1, 3]

    def test_unclosed_brace_rejected(self):
        with pytest.raises(PrototxtError):
            parse_text("layer { name: \"x\"")

    def test_stray_brace_rejected(self):
        with pytest.raises(PrototxtError):
            parse_text("}")


HANDWRITTEN = '''
name: "MiniNet"
# classic deploy-style input declaration
input: "data"
input_dim: 1
input_dim: 3
input_dim: 16
input_dim: 16
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param { num_output: 4 kernel_size: 3 pad: 1 }
}
layer {
  name: "relu1"
  type: "ReLU"
  bottom: "conv1"
  top: "conv1"   # in-place, like real Caffe files
}
layer {
  name: "pool1"
  type: "Pooling"
  bottom: "conv1"
  top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "fc"
  type: "InnerProduct"
  bottom: "pool1"
  top: "fc"
  inner_product_param { num_output: 5 }
}
layer {
  name: "prob"
  type: "Softmax"
  bottom: "fc"
  top: "prob"
}
'''


class TestParseNetwork:
    def test_handwritten_deploy_file(self):
        network = network_from_prototxt(HANDWRITTEN)
        assert network.name == "MiniNet"
        assert [l.kind for l in network.layers] == [
            "input", "conv", "relu", "pool", "fc", "softmax",
        ]
        assert network.output_shape == (5,)
        probs = network.forward(
            SeededRng(0, "p").uniform_array((3, 16, 16), 0, 255)
        )
        assert probs.sum() == pytest.approx(1.0, rel=1e-4)

    def test_input_layer_style(self):
        text = '''
        layer {
          name: "data" type: "Input" top: "data"
          input_param { shape { dim: 1 dim: 3 dim: 8 dim: 8 } }
        }
        layer {
          name: "conv" type: "Convolution" bottom: "data" top: "conv"
          convolution_param { num_output: 2 kernel_size: 3 }
        }
        '''
        network = network_from_prototxt(text)
        assert network.input_shape == (3, 8, 8)
        assert network.output_shape == (2, 6, 6)

    def test_global_pooling(self):
        text = '''
        input: "data"
        input_dim: 1 input_dim: 4 input_dim: 7 input_dim: 7
        layer {
          name: "gap" type: "Pooling" bottom: "data" top: "gap"
          pooling_param { pool: AVE global_pooling: true }
        }
        '''
        network = network_from_prototxt(text)
        assert network.output_shape == (4, 1, 1)

    def test_missing_input_rejected(self):
        with pytest.raises(PrototxtError):
            network_from_prototxt('layer { name: "x" type: "ReLU" }')

    @pytest.mark.parametrize("kind", ["Warp", "BatchNorm", "Scale"])
    def test_unknown_type_rejected(self, kind):
        text = f'''
        input: "data"
        input_dim: 1 input_dim: 3 input_dim: 8 input_dim: 8
        layer {{ name: "w" type: "{kind}" bottom: "data" top: "w" }}
        '''
        with pytest.raises(PrototxtError, match="unsupported layer type"):
            network_from_prototxt(text)

    def test_unreachable_layer_rejected(self):
        text = HANDWRITTEN + '''
        layer {
          name: "orphan" type: "ReLU" bottom: "nowhere" top: "orphan"
        }
        '''
        with pytest.raises(PrototxtError):
            network_from_prototxt(text)


def every_field_network() -> Network:
    """One layer of every kind, each ``config()`` field off its default."""
    network = Network(
        "every-field",
        [
            InputLayer((4, 9, 9), name="data"),
            ConvLayer("conv", 6, kernel=3, stride=2, pad=1, groups=2),
            ReLULayer("relu"),
            LRNLayer("norm", local_size=3, alpha=2e-4, beta=0.5, k=2.0),
            ExitHead(
                "early",
                head=[
                    PoolLayer("early_pool", kernel=3, stride=2, pad=1, mode="avg"),
                    FCLayer("early_fc", 3),
                    SoftmaxLayer("early_prob"),
                ],
                accuracy=0.5,
            ),
            InceptionModule(
                "mix",
                [
                    [ConvLayer("mix_a", 2, kernel=1)],
                    [PoolLayer("mix_pool", kernel=3, stride=1, pad=1, mode="avg")],
                ],
            ),
            ResidualBlock(
                "res",
                body=[ConvLayer("res_conv", 8, kernel=3, pad=1)],
                shortcut=[ConvLayer("res_proj", 8, kernel=1)],
            ),
            PoolLayer("pool", kernel=3, stride=2, pad=1, mode="avg"),
            FCLayer("fc", 5),
            DropoutLayer("drop", rate=0.25),
            SoftmaxLayer("prob"),
        ],
    )
    network.final_accuracy = 0.9
    return network.build(SeededRng(0, "every-field"))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "builder", [agenet, googlenet, smallnet_exits, googlenet_exits]
    )
    def test_zoo_roundtrip_preserves_architecture(self, builder):
        model = builder()
        text = network_to_prototxt(model.network)
        rebuilt = network_from_prototxt(text)
        assert [l.kind for l in rebuilt.layers] == [
            l.kind for l in model.network.layers
        ]
        assert rebuilt.param_count == model.network.param_count
        assert rebuilt.output_shape == model.network.output_shape
        assert total_flops(rebuilt) == pytest.approx(total_flops(model.network))

    def test_googlenet_inceptions_reconstructed(self):
        text = network_to_prototxt(googlenet().network)
        rebuilt = network_from_prototxt(text)
        inceptions = [l for l in rebuilt.layers if l.kind == "inception"]
        assert len(inceptions) == 9
        assert inceptions[0].out_shape == (256, 28, 28)
        # Branch order preserved: 1x1 first, pool-proj last.
        assert len(inceptions[0].branches) == 4

    def test_double_roundtrip_stable(self):
        text1 = network_to_prototxt(agenet().network)
        text2 = network_to_prototxt(network_from_prototxt(text1))
        assert text1 == text2

    def test_every_config_field_survives_the_pair(self, tmp_path):
        """LRN ``k`` used to be dropped: the net reloaded with ``k == 1``."""
        model = Model("every-field", every_field_network())
        loaded = load_model_files(*save_model_files(model, str(tmp_path)))
        assert loaded.description_json() == model.description_json()
        assert loaded.model_id == model.model_id
        x = SeededRng(1, "x").normal_array((4, 9, 9))
        for exit in model.network.exit_points():
            assert np.array_equal(
                loaded.network.at_exit(exit.index).forward(x),
                model.network.at_exit(exit.index).forward(x),
            )

    def test_default_lrn_k_is_not_written(self):
        assert "k:" not in network_to_prototxt(smallnet().network)
        assert "    k: 2.0\n" in network_to_prototxt(every_field_network())

    def test_exit_is_a_side_chain_that_joins_nothing(self):
        text = network_to_prototxt(smallnet_exits().network)
        assert "final_accuracy: 0.78\n" in text
        head = text[text.index('name: "exit1_fc"') :]
        head = head[: head.index('name: "norm1"')]
        assert 'bottom: "pool1"' in head
        assert 'exit_param {\n    name: "exit1"\n    accuracy: 0.62\n  }' in head
        # the trunk goes on from the blob the exit read
        assert 'name: "norm1"\n  type: "LRN"\n  bottom: "pool1"' in text

    def test_exit_head_that_forks_rejected(self):
        text = network_to_prototxt(smallnet_exits().network).replace(
            'bottom: "norm1"', 'bottom: "exit1_fc"', 1
        )
        with pytest.raises(PrototxtError, match="unreachable"):
            network_from_prototxt(text)

    def test_exit_that_rewrites_the_trunk_rejected(self):
        text = HANDWRITTEN.replace(
            'top: "conv1"   # in-place, like real Caffe files',
            'top: "conv1"\n  exit_param { name: "x" accuracy: 0.5 }',
        )
        with pytest.raises(PrototxtError, match="trunk"):
            network_from_prototxt(text)

    def test_emit_requires_built_network(self):
        from repro.nn.zoo.smallnet import smallnet_network

        with pytest.raises(PrototxtError):
            network_to_prototxt(smallnet_network())


#: what a mutation may write.  No digits: an inserted digit can widen a
#: layer a thousandfold, and a huge network that builds is not a decoding
#: error, only a memory bill.
MUTATION_ALPHABET = ' \n\t{}:"#-._abceknprtuxyzAEMSVX'


@functools.lru_cache(maxsize=1)
def smallnet_prototxt() -> str:
    return network_to_prototxt(smallnet().network)


@st.composite
def mutated_prototxts(draw):
    """smallnet's prototxt with one 1-4 character insertion, deletion or
    replacement."""
    text = smallnet_prototxt()
    position = draw(st.integers(0, len(text)))
    chars = draw(st.text(MUTATION_ALPHABET, min_size=1, max_size=4))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    end = position if kind == "insert" else position + len(chars)
    return text[:position] + ("" if kind == "delete" else chars) + text[end:]


class TestMalformedText:
    """Whatever a prototxt holds, it loads or raises :class:`PrototxtError`."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(mutated_prototxts())
    def test_mutated_prototxt_loads_or_raises_prototxt_error(self, text):
        try:
            network_from_prototxt(text)
        except PrototxtError:
            pass

    @pytest.mark.parametrize(
        "fragment, replacement",
        [
            ('  top: "fc4"\n', ""),  # a layer without a top
            ("num_output: 10", "num_output: ten"),  # a word for an integer
            ("num_output: 10", "num_output: 1.5"),  # a float for an integer
            ("alpha: 0.0001", "alpha: tiny"),  # a word for a float
            ("num_output: 10", "num_output: 0"),  # a shape no layer takes
            ("kernel_size: 5", "kernel_size: 55"),  # a kernel wider than its input
            ("input_dim: 32\n", "input_dim: x\n"),  # a word for a dim
            ("dropout_param {", "dropout_param: 3 junk {"),  # a scalar for a message
            ('input: "input"\n', 'input: "input"\nlayer: 5\n'),  # a scalar layer
        ],
    )
    def test_each_former_leak_is_a_prototxt_error(self, fragment, replacement):
        text = smallnet_prototxt()
        assert fragment in text
        with pytest.raises(PrototxtError):
            network_from_prototxt(text.replace(fragment, replacement, 1))

    def test_non_utf8_file_is_a_prototxt_error(self, tmp_path):
        prototxt_path, weights_path = save_model_files(smallnet(), str(tmp_path))
        with open(prototxt_path, "ab") as handle:
            handle.write(b"# \xff\xfe\n")
        with pytest.raises(PrototxtError):
            load_model_files(prototxt_path, weights_path)


class TestGroupedConvolution:
    def test_group_shapes_and_params(self):
        layer = ConvLayer("c", 8, kernel=3, pad=1, groups=2)
        layer.build((4, 6, 6), SeededRng(0, "g"))
        assert layer.out_shape == (8, 6, 6)
        # Each filter only sees C/groups input channels.
        assert layer.params["weight"].shape == (8, 2, 3, 3)

    def test_group_forward_matches_manual_split(self):
        layer = ConvLayer("c", 4, kernel=1, groups=2)
        layer.build((4, 3, 3), SeededRng(1, "g"))
        x = SeededRng(2, "x").normal_array((4, 3, 3))
        out = layer.forward(x)
        weight, bias = layer.params["weight"], layer.params["bias"]
        for f in range(4):
            group = f // 2
            x_slice = x[group * 2 : (group + 1) * 2]
            expected = (weight[f][:, 0, 0][:, None, None] * x_slice).sum(axis=0) + bias[f]
            assert np.allclose(out[f], expected, atol=1e-5)

    def test_groups_halve_flops(self):
        plain = ConvLayer("a", 8, kernel=3, pad=1, groups=1)
        grouped = ConvLayer("b", 8, kernel=3, pad=1, groups=2)
        plain.build((4, 6, 6), SeededRng(3, "g"))
        grouped.build((4, 6, 6), SeededRng(3, "g"))
        assert grouped.count_flops() == plain.count_flops() / 2

    def test_invalid_groups_rejected(self):
        with pytest.raises(LayerShapeError):
            ConvLayer("c", 8, kernel=3, groups=3)  # 3 does not divide 8
        layer = ConvLayer("c", 8, kernel=3, groups=2)
        with pytest.raises(LayerShapeError):
            layer.build((3, 6, 6), SeededRng(0, "g"))  # 2 does not divide 3
