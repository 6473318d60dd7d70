#include "cvsafe/nn/serialize.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace cvsafe::nn {
namespace {
constexpr const char* kMagic = "cvsafe-mlp";
constexpr int kVersion = 1;
}  // namespace

void save_mlp(const Mlp& net, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  os << net.layer_count() << '\n';
  os << std::hexfloat;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& layer = net.layer(l);
    os << layer.in_dim() << ' ' << layer.out_dim() << ' '
       << activation_name(layer.activation()) << '\n';
    for (std::size_t i = 0; i < layer.weights().rows(); ++i) {
      for (std::size_t j = 0; j < layer.weights().cols(); ++j) {
        if (j) os << ' ';
        os << layer.weights()(i, j);
      }
      os << '\n';
    }
    for (std::size_t j = 0; j < layer.bias().cols(); ++j) {
      if (j) os << ' ';
      os << layer.bias()(0, j);
    }
    os << '\n';
  }
}

bool save_mlp_file(const Mlp& net, const std::string& path) {
  // Write a private temp file, then rename it over \p path: readers (and
  // other processes training the same model-cache key) see either no
  // file or a complete one, never a partial write.
  static std::atomic<unsigned> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::ofstream out(tmp);
  if (!out) return false;
  save_mlp(net, out);
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);
  if (!out || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

Mlp load_mlp(std::istream& is) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic || version != kVersion) {
    throw std::runtime_error("load_mlp: bad header");
  }
  std::size_t layer_count = 0;
  if (!(is >> layer_count) || layer_count == 0) {
    throw std::runtime_error("load_mlp: bad layer count");
  }
  std::vector<DenseLayer> layers;
  layers.reserve(layer_count);
  for (std::size_t l = 0; l < layer_count; ++l) {
    std::size_t in = 0, out = 0;
    std::string act_name;
    if (!(is >> in >> out >> act_name) || in == 0 || out == 0) {
      throw std::runtime_error("load_mlp: bad layer header");
    }
    Matrix w(out, in);
    for (auto& x : w.data()) {
      std::string tok;
      if (!(is >> tok)) throw std::runtime_error("load_mlp: truncated weights");
      x = std::strtod(tok.c_str(), nullptr);
    }
    Matrix b(1, out);
    for (auto& x : b.data()) {
      std::string tok;
      if (!(is >> tok)) throw std::runtime_error("load_mlp: truncated bias");
      x = std::strtod(tok.c_str(), nullptr);
    }
    layers.emplace_back(std::move(w), std::move(b),
                        activation_from_name(act_name));
  }
  return Mlp(std::move(layers));
}

Mlp load_mlp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_mlp_file: cannot open " + path);
  return load_mlp(in);
}

}  // namespace cvsafe::nn
