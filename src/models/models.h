// The benchmark model zoo: inference graphs for the paper's seven benchmark
// models (BERT, NasRNN, ResNeXt-50, NasNet-A, SqueezeNet, VGG-19,
// Inception-v3) plus ResNet-50 (which the paper notes gains nothing on T4).
//
// These are structurally faithful but scaled-down versions (see DESIGN.md
// §4): they contain exactly the operator motifs the paper's rewrites
// exploit — attention Q/K/V matmuls sharing an input (Fig. 8), NasRNN's
// matmul farms (Fig. 11), inception/fire modules with parallel convolutions
// sharing an input (Figs. 9-10), grouped-convolution bottlenecks — at sizes
// our bundled MILP extraction can handle.
//
// Every builder takes explicit size parameters; `paper_models()` returns the
// benchmark-scale presets and `tiny_models()` unit-test-scale ones.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/graph.h"

namespace tensat {

Graph make_bert(int layers, int seq, int hidden);
Graph make_nasrnn(int steps, int batch, int hidden, int gates = 8);
Graph make_resnext50(int blocks, int channels, int hw, int groups);
Graph make_nasnet_a(int cells, int channels, int hw);
Graph make_squeezenet(int fires, int channels, int hw);
Graph make_vgg19(int base_channels, int hw);
Graph make_inception_v3(int modules, int channels, int hw);
Graph make_resnet50(int blocks, int channels, int hw);

struct ModelInfo {
  std::string name;
  Graph graph;
};

/// Benchmark-scale presets for the paper's seven benchmarks, in the paper's
/// Table 1 order: NasRNN, BERT, ResNeXt-50, NasNet-A, SqueezeNet, VGG-19,
/// Inception-v3.
std::vector<ModelInfo> paper_models();

/// Unit-test-scale versions of the same models (cheap enough to run through
/// the reference interpreter).
std::vector<ModelInfo> tiny_models();

}  // namespace tensat
