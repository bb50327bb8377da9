// lint-fixture-expect: clean
// Walk-shaped reader: the sequence helper takes its count from
// Count(min_elem_size), which caps it against the bytes remaining, and
// the loop runs over the elements that count sized.
#include <cstddef>
#include <cstdint>
#include <vector>

class Reader {
 public:
  void U32(uint32_t& v);
  void I32(int32_t& v);

  template <class T>
  void Seq(std::vector<T>& items, size_t min_elem_size) {
    items.resize(Count(min_elem_size));
    for (T& item : items) Walk(*this, item);
  }

 private:
  uint32_t Count(size_t min_elem_size);
};
