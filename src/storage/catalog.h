// Table catalog: name → Table, with stable numeric ids that double as
// buffer-pool space ids.
//
// Lookup by id runs on every row access, so it takes no lock: tables are
// created at setup and never dropped, and each one is published into a
// fixed slot array with a release store. Creation and name lookup keep the
// mutex.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace tdp::storage {

class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Most tables one catalog holds; table ids index a fixed slot array.
  static constexpr size_t kMaxTables = 256;

  /// Creates a table; returns the existing one if the name is taken.
  /// Aborts past kMaxTables (a setup error, not a runtime condition).
  Table* CreateTable(const std::string& name, uint64_t rows_per_page = 64);

  /// Null if absent.
  Table* GetTable(const std::string& name) const;
  Table* GetTable(uint32_t id) const;

  std::vector<std::string> TableNames() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Table>> tables_;  // index == table id
  std::unordered_map<std::string, uint32_t> by_name_;
  /// slots_[id] == tables_[id].get(), published after the table is built.
  std::array<std::atomic<Table*>, kMaxTables> slots_{};
};

}  // namespace tdp::storage
