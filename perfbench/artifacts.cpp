#include "artifacts.hpp"

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "data/synthetic.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace appeal;

namespace {

std::string file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return util::hash_hex(util::fnv1a64(bytes));
}

std::map<std::string, std::string> read_manifest(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

}  // namespace

std::string model_recipe::canonical() const {
  std::ostringstream os;
  os << "perfbench-v1 preset=" << data::preset_name(preset)
     << " data_seed=" << data_seed << " train=" << train_samples
     << " val=" << val_samples << " big_epochs=" << big_epochs
     << " pretrain_epochs=" << pretrain_epochs
     << " joint_epochs=" << joint_epochs << " joint_lr=" << joint_lr
     << " beta=" << beta << " calibration=" << calibration_samples
     << " edge=" << edge_config().spec.canonical()
     << " edge_seed=" << edge_config().init_seed
     << " big=" << big_config().spec.canonical();
  return os.str();
}

const model_recipe& default_recipe() {
  static const model_recipe recipe;
  return recipe;
}

core::two_head_config edge_config() {
  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  return cfg;
}

serve::cloud_model_config big_config() { return serve::cloud_model_config{}; }

artifact_paths paths_for(const std::string& cache_root,
                         const model_recipe& recipe) {
  artifact_paths p;
  p.dir = cache_root + "/" + util::hash_hex(util::fnv1a64(recipe.canonical()));
  p.edge_weights = p.dir + "/edge.apnw";
  p.big_weights = p.dir + "/big.apnw";
  p.calibration = p.dir + "/calibration.apnw";
  p.manifest = p.dir + "/manifest.txt";
  return p;
}

void write_manifest(const artifact_paths& p, const model_recipe& recipe,
                    double big_val_accuracy, double edge_val_accuracy) {
  std::ofstream out(p.manifest);
  out << "recipe=" << recipe.canonical() << "\n"
      << "edge=" << file_hash(p.edge_weights) << "\n"
      << "big=" << file_hash(p.big_weights) << "\n"
      << "calibration=" << file_hash(p.calibration) << "\n"
      << "big_val_accuracy=" << big_val_accuracy << "\n"
      << "edge_val_accuracy=" << edge_val_accuracy << "\n";
}

bool verify_artifacts(const artifact_paths& p, const model_recipe& recipe,
                      std::string* why) {
  const std::map<std::string, std::string> m = read_manifest(p.manifest);
  if (m.empty()) {
    *why = "no manifest at " + p.manifest;
    return false;
  }
  if (m.count("recipe") == 0 || m.at("recipe") != recipe.canonical()) {
    *why = "manifest recipe differs from " + recipe.canonical();
    return false;
  }
  const std::pair<const char*, const std::string*> files[] = {
      {"edge", &p.edge_weights},
      {"big", &p.big_weights},
      {"calibration", &p.calibration}};
  for (const auto& [key, path] : files) {
    const std::string actual = file_hash(*path);
    if (actual.empty() || m.count(key) == 0 || m.at(key) != actual) {
      *why = "content hash mismatch for " + *path;
      return false;
    }
  }
  return true;
}

held_out make_held_out(const model_recipe& recipe, std::uint64_t seed,
                       std::size_t count) {
  data::synthetic_config cfg = data::preset_config(recipe.preset,
                                                   recipe.data_seed);
  cfg.sample_count = count;
  // make_bundle draws its splits from data_seed * 7 + {1, 2, 3}; a mixed
  // 64-bit seed never lands on those.
  cfg.sample_seed = util::mix64(seed ^ 0xBE7C4A11ULL) | (1ULL << 63);
  const data::synthetic_dataset ds(cfg);
  held_out out;
  out.images.reserve(count);
  out.labels.reserve(count);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const data::sample& s = ds.get(i);
    out.images.push_back(s.image);
    out.labels.push_back(s.label);
  }
  return out;
}

}  // namespace perfbench
