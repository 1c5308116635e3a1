#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace netsyn::nn {
namespace {

constexpr char kMagic[4] = {'N', 'S', 'Y', 'N'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void writePod(std::ofstream& f, T v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T readPod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

}  // namespace

void saveParams(const ParamStore& store, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("saveParams: cannot open " + path);
  f.write(kMagic, 4);
  writePod<std::uint32_t>(f, kVersion);
  writePod<std::uint64_t>(f, store.params().size());
  for (const auto& p : store.params()) {
    writePod<std::uint64_t>(f, p->value().rows());
    writePod<std::uint64_t>(f, p->value().cols());
    f.write(reinterpret_cast<const char*>(p->value().data()),
            static_cast<std::streamsize>(p->value().size() * sizeof(float)));
  }
  if (!f) throw std::runtime_error("saveParams: write failed for " + path);
}

void loadParams(ParamStore& store, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("loadParams: cannot open " + path);
  char magic[4];
  f.read(magic, 4);
  if (!f || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("loadParams: bad magic in " + path);
  const auto version = readPod<std::uint32_t>(f);
  if (version != kVersion)
    throw std::runtime_error("loadParams: unsupported version in " + path);
  const auto count = readPod<std::uint64_t>(f);
  if (count != store.params().size())
    throw std::runtime_error("loadParams: parameter count mismatch in " +
                             path);
  // Bumped before the reads so even a load that fails part-way through
  // invalidates caches built on the old weights.
  store.bumpVersion();
  for (const auto& p : store.params()) {
    const auto rows = readPod<std::uint64_t>(f);
    const auto cols = readPod<std::uint64_t>(f);
    if (rows != p->value().rows() || cols != p->value().cols())
      throw std::runtime_error("loadParams: shape mismatch in " + path);
    f.read(reinterpret_cast<char*>(p->value().data()),
           static_cast<std::streamsize>(p->value().size() * sizeof(float)));
    if (!f) throw std::runtime_error("loadParams: truncated file " + path);
  }
}

}  // namespace netsyn::nn
