// lint-fixture-expect: wire-count-bound
// Walk-shaped reader whose sequence helper sizes its loop by a raw U32()
// read: a hostile frame claims 4G elements and the loop believes it.
#include <cstdint>
#include <vector>

class Reader {
 public:
  uint32_t U32();
  void I32(int32_t& v);

  template <class T>
  void Seq(std::vector<T>& items) {
    const uint32_t n = U32();
    items.clear();
    for (uint32_t i = 0; i < n; ++i) {
      Walk(*this, items.emplace_back());
    }
  }
};
