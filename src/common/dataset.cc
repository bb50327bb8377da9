#include "common/dataset.h"

#include <algorithm>
#include <limits>

namespace kspr {

void Dataset::NormalizeToUnitBox() {
  if (num_live_ == 0) return;
  const RecordId n = size();
  for (int j = 0; j < dim_; ++j) {
    // Per-dimension extent over the LIVE records only, so tombstoned
    // outliers cannot skew the scale; dead rows are rescaled with the same
    // map (their values are never read, but staying finite keeps asserts
    // and debug dumps sane).
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (RecordId i = 0; i < n; ++i) {
      if (!IsLive(i)) continue;
      lo = std::min(lo, At(i, j));
      hi = std::max(hi, At(i, j));
    }
    const double range = hi - lo;
    for (RecordId i = 0; i < n; ++i) {
      double& x = values_[static_cast<size_t>(i) * dim_ + j];
      x = range > 0 ? (x - lo) / range : 0.5;
    }
  }
  ++version_;
}

std::string Dataset::Summary() const {
  std::string s = "Dataset(n=";
  s.append(std::to_string(num_live_));
  if (num_live_ != size()) {
    s.append("/").append(std::to_string(size()));  // live/slots
  }
  s.append(", d=").append(std::to_string(dim_)).append(")");
  return s;
}

}  // namespace kspr
