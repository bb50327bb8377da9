// lint-fixture-expect: wire-count-bound
// The same unbounded loop with the count filled in by reference, as the
// walk-shaped reader's field calls do.
#include <cstdint>
#include <vector>

class Reader {
 public:
  void U32(uint32_t& v);
  void I32(int32_t& v);

  template <class T>
  void Seq(std::vector<T>& items) {
    uint32_t n = 0;
    U32(n);
    items.clear();
    for (uint32_t i = 0; i < n; ++i) {
      Walk(*this, items.emplace_back());
    }
  }
};
