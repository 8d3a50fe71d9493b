#include "storage/catalog.h"

#include <cstdio>
#include <cstdlib>

namespace tdp::storage {

Table* Catalog::CreateTable(const std::string& name, uint64_t rows_per_page) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return tables_[it->second].get();
  const uint32_t id = static_cast<uint32_t>(tables_.size());
  if (id >= kMaxTables) {
    std::fprintf(stderr, "Catalog: more than %zu tables\n", kMaxTables);
    std::abort();
  }
  tables_.push_back(std::make_unique<Table>(id, name, rows_per_page));
  by_name_.emplace(name, id);
  slots_[id].store(tables_.back().get(), std::memory_order_release);
  return tables_.back().get();
}

Table* Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : tables_[it->second].get();
}

Table* Catalog::GetTable(uint32_t id) const {
  return id < kMaxTables ? slots_[id].load(std::memory_order_acquire)
                         : nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t->name());
  return out;
}

}  // namespace tdp::storage
