// The trained models the benchmark serves, and where they live.
//
// perfbench_prepare trains a two-head MobileNet edge network (joint loss)
// and the canonical cloud ResNet once, and stores their weights plus the
// calibration images in a directory keyed by a hash of the training
// recipe. The manifest records a content hash of every file, and
// perfbench_driver refuses weights whose hash does not match.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/two_head_network.hpp"
#include "data/presets.hpp"
#include "serve/cloud_model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Everything that decides the trained weights. canonical() keys the cache.
struct model_recipe {
  appeal::data::preset preset = appeal::data::preset::cifar10_like;
  std::uint64_t data_seed = 7;
  std::size_t train_samples = 2000;
  std::size_t val_samples = 600;
  std::size_t big_epochs = 3;
  std::size_t pretrain_epochs = 3;
  std::size_t joint_epochs = 4;
  double joint_lr = 8e-4;
  double beta = 0.25;
  /// Validation images kept for int8 activation grids and δ calibration.
  std::size_t calibration_samples = 512;

  std::string canonical() const;
};

const model_recipe& default_recipe();

/// The edge network's architecture (weights come from the cache).
appeal::core::two_head_config edge_config();

/// The cloud network's architecture: serve's canonical cloud model, which
/// cloud_stub --scorer=network builds with its default flags.
appeal::serve::cloud_model_config big_config();

struct artifact_paths {
  std::string dir;
  std::string edge_weights;
  std::string big_weights;
  std::string calibration;
  std::string manifest;
};

/// Paths under `cache_root` for `recipe`.
artifact_paths paths_for(const std::string& cache_root,
                         const model_recipe& recipe);

/// Writes the manifest: recipe, and a content hash of each artifact.
void write_manifest(const artifact_paths& p, const model_recipe& recipe,
                    double big_val_accuracy, double edge_val_accuracy);

/// True when the manifest exists, names `recipe`, and every artifact's
/// content hash matches it. `why` receives the reason on failure.
bool verify_artifacts(const artifact_paths& p, const model_recipe& recipe,
                      std::string* why);

/// Held-out requests: a fresh sample stream of the recipe's preset (same
/// class prototypes, a sample seed disjoint from train/val/test), drawn
/// from `seed`.
struct held_out {
  std::vector<appeal::tensor> images;
  std::vector<std::size_t> labels;
};
held_out make_held_out(const model_recipe& recipe, std::uint64_t seed,
                       std::size_t count);

}  // namespace perfbench
