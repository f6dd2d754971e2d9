#include "sparse/quantized.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "tensor/check.h"
#include "tensor/pod_stream.h"

namespace crisp::sparse {

namespace {

constexpr const char* kCtx = "QuantizedPayload::read";

}  // namespace

QuantizedPayload QuantizedPayload::quantize(const float* v, std::int64_t count,
                                            std::int64_t group_size) {
  QuantizedPayload out;
  if (count == 0) return out;
  CRISP_CHECK(group_size >= 1,
              "QuantizedPayload::quantize: group_size must be >= 1, got "
                  << group_size);
  out.group_size = group_size;
  out.values.resize(static_cast<std::size_t>(count));
  const std::int64_t groups = (count + group_size - 1) / group_size;
  out.scales.resize(static_cast<std::size_t>(groups));

  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t begin = g * group_size;
    const std::int64_t end = std::min(begin + group_size, count);
    float amax = 0.0f;
    for (std::int64_t i = begin; i < end; ++i) {
      const float a = std::fabs(v[i]);
      if (a > amax) amax = a;
    }
    float scale = amax / 127.0f;
    // A denormal amax can underflow the division to 0, which would zero a
    // non-zero group through the all-zero branch below. The smallest
    // normal float keeps the bound: every such |v| < 127 * denorm_min is
    // far below FLT_MIN / 2, so q = 0 with |err| <= scale / 2 still holds.
    if (scale == 0.0f && amax != 0.0f)
      scale = std::numeric_limits<float>::min();
    out.scales[static_cast<std::size_t>(g)] = scale;
    if (scale == 0.0f) {
      for (std::int64_t i = begin; i < end; ++i)
        out.values[static_cast<std::size_t>(i)] = 0;
      continue;
    }
    for (std::int64_t i = begin; i < end; ++i) {
      // round-half-away-from-zero: deterministic, no FE-mode dependence.
      long q = std::lroundf(v[i] / scale);
      if (q > 127) q = 127;
      if (q < -127) q = -127;
      out.values[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(q);
    }
  }
  return out;
}

void QuantizedPayload::dequantize(float* out) const {
  const std::int64_t count = slot_count();
  for (std::int64_t i = 0; i < count; ++i)
    out[i] = scales[static_cast<std::size_t>(i / group_size)] *
             static_cast<float>(values[static_cast<std::size_t>(i)]);
}

std::vector<float> QuantizedPayload::dequantized() const {
  std::vector<float> out(values.size());
  dequantize(out.data());
  return out;
}

void QuantizedPayload::write(std::ostream& os, bool crc_trailer) const {
  io::EnvelopeWriter body(os, crc_trailer);
  io::write_pod(body, group_size);
  io::write_array(body, values);
  io::write_array(body, scales);
  body.finish();
}

QuantizedPayload QuantizedPayload::read(std::istream& is, bool crc_trailer) {
  io::EnvelopeReader body(is, kCtx, crc_trailer);
  QuantizedPayload out;
  out.group_size = io::read_pod<std::int64_t>(body, kCtx);
  out.values = io::read_array<std::int8_t>(body, kCtx);
  out.scales = io::read_array<float>(body, kCtx);
  body.finish();
  if (out.values.empty()) {
    CRISP_CHECK(out.scales.empty() && out.group_size == 0,
                "QuantizedPayload::read: empty payload with non-empty header");
    return out;
  }
  CRISP_CHECK(out.group_size >= 1,
              "QuantizedPayload::read: bad group size " << out.group_size);
  const std::int64_t expect_groups =
      (out.slot_count() + out.group_size - 1) / out.group_size;
  CRISP_CHECK(static_cast<std::int64_t>(out.scales.size()) == expect_groups,
              "QuantizedPayload::read: scale count mismatch ("
                  << out.scales.size() << " vs " << expect_groups << ")");
  return out;
}

}  // namespace crisp::sparse
