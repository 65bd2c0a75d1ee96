// Trains the benchmark's models once, outside every measured process.
//
// Trains the two-head MobileNet edge network with the joint loss and the
// canonical cloud ResNet on the recipe's preset (core::build_appealnet),
// then saves the edge weights (two_head_network::save), the cloud weights
// (nn::save_model, trainable form; every loader folds conv+BN itself) and
// the calibration images under a directory keyed by the recipe's hash.
// A run whose artifacts already verify does nothing.
//
// Run:  perfbench_prepare --cache=<dir>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "artifacts.hpp"
#include "core/appealnet_builder.hpp"
#include "nn/serialize.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) try {
  using namespace appeal;
  const util::config args = util::config::from_args(argc, argv);
  const std::string cache = args.get_string_or("cache", "");
  if (cache.empty()) {
    std::fprintf(stderr, "perfbench_prepare: --cache=<dir> is required\n");
    return 2;
  }
  const perfbench::model_recipe& recipe = perfbench::default_recipe();
  const perfbench::artifact_paths paths = perfbench::paths_for(cache, recipe);
  std::string why;
  if (perfbench::verify_artifacts(paths, recipe, &why)) {
    std::printf("models cached in %s\n", paths.dir.c_str());
    return 0;
  }
  std::printf("training models (%s)\n", why.c_str());
  util::set_log_level(util::log_level::info);

  data::synthetic_config data_cfg =
      data::preset_config(recipe.preset, recipe.data_seed);
  data_cfg.sample_count = recipe.train_samples;
  data_cfg.sample_seed = recipe.data_seed * 7ULL + 1ULL;
  const data::synthetic_dataset train(data_cfg);
  data_cfg.sample_count = recipe.val_samples;
  data_cfg.sample_seed = recipe.data_seed * 7ULL + 2ULL;
  const data::synthetic_dataset val(data_cfg);

  core::appealnet_build_config cfg;
  cfg.little = perfbench::edge_config();
  cfg.big_spec = perfbench::big_config().spec;
  cfg.big_training.epochs = recipe.big_epochs;
  cfg.pretraining.epochs = recipe.pretrain_epochs;
  cfg.joint_training.epochs = recipe.joint_epochs;
  cfg.joint_training.learning_rate = recipe.joint_lr;
  cfg.loss.beta = recipe.beta;
  core::appealnet_build_report report;
  core::appealnet_system system =
      core::build_appealnet(train, val, cfg, &report);

  std::filesystem::create_directories(paths.dir);
  system.little().save(paths.edge_weights);
  nn::save_model(system.big(), paths.big_weights);
  std::vector<std::size_t> rows(recipe.calibration_samples);
  std::iota(rows.begin(), rows.end(), 0);
  data::batch calib = data::make_batch(val, rows);
  nn::save_tensors({{"calibration", &calib.images}}, paths.calibration);
  perfbench::write_manifest(paths, recipe, report.big_val_accuracy,
                            report.little_val_accuracy);
  std::printf("trained: cloud val accuracy %.4f, edge val accuracy %.4f -> %s\n",
              report.big_val_accuracy, report.little_val_accuracy,
              paths.dir.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_prepare: %s\n", e.what());
  return 1;
}
