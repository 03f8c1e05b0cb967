#pragma once

/// \file registry.h
/// String-keyed factory registry shared by the pluggable engine seams
/// (staging::Stager, kernelize::Kernelizer).
/// New engines register under a name at startup (or any time before
/// first use) and become selectable from SessionConfig without touching
/// core headers — the module-registration discipline of large C
/// servers, adapted to C++.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace atlas {

template <typename Interface>
class Registry {
 public:
  using Factory = std::function<std::shared_ptr<Interface>()>;

  /// `kind` names the seam ("stager", "kernelizer", ...) in errors.
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers `factory` under `name`. Throws atlas::Error if the name
  /// is empty or already taken (overwriting a backend silently would
  /// make behavior depend on registration order).
  void add(const std::string& name, Factory factory) {
    ATLAS_CHECK(!name.empty(), "empty " << kind_ << " name");
    ATLAS_CHECK(factory != nullptr, "null factory for " << kind_ << " '"
                                                        << name << "'");
    std::lock_guard<std::mutex> lock(mu_);
    ATLAS_CHECK(factories_.emplace(name, std::move(factory)).second,
                "" << kind_ << " '" << name << "' is already registered");
  }

  bool contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return factories_.count(name) != 0;
  }

  /// Instantiates the backend registered under `name`. Throws
  /// atlas::Error listing the registered names when `name` is unknown.
  std::shared_ptr<Interface> create(const std::string& name) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (!factory) {
      std::ostringstream os;
      os << "unknown " << kind_ << " '" << name << "'; registered: ";
      const auto known = names();
      for (std::size_t i = 0; i < known.size(); ++i) {
        if (i) os << ", ";
        os << known[i];
      }
      throw Error(os.str(), ErrorCode::not_found);
    }
    auto backend = factory();
    ATLAS_CHECK(backend != nullptr,
                "" << kind_ << " '" << name << "' factory returned null");
    return backend;
  }

  /// Registered names, sorted (std::map iteration order).
  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
  }

 private:
  std::string kind_;
  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

}  // namespace atlas
