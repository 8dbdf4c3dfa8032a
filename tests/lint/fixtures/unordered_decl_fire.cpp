// libra-lint fixture: unordered members whose declarator carries a trailing
// macro call (a thread-safety annotation) or a [[attribute]] before its ';'
// or '='. The SymbolIndex pass must still learn both names, so the walks
// below fire.
#include <unordered_map>
#include <unordered_set>

#define GUARDED_BY(x)

namespace fixture {

struct Host {
  int mu;
  std::unordered_map<int, double> items GUARDED_BY(mu);
  std::unordered_set<int> seen [[maybe_unused]] = {};
};

inline double sum(const Host& h) {
  double total = 0.0;
  for (const auto& [key, value] : h.items) total += value;
  return total;
}

inline int first_seen(const Host& h) {
  auto it = h.seen.begin();
  return it == h.seen.end() ? -1 : *it;
}

}  // namespace fixture
