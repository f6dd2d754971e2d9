// Minimal binary serialization for named tensor collections.
//
// Purpose: the model zoo caches pre-trained weights on disk so each bench
// binary does not re-train the universal model. Format: u32 magic "CRSP",
// u32 version 1, then the named-tensor section below, never sealed; it is
// host-endian like every format on the envelope (tensor/pod_stream.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "tensor/tensor.h"

namespace crisp {

using TensorMap = std::map<std::string, Tensor>;

/// Writes the collection to `path`, overwriting. Throws on I/O failure.
void save_tensors(const TensorMap& tensors, const std::string& path);

/// Reads a collection previously written by save_tensors. Throws on missing
/// file, bad magic or version, an implausible shape, or truncation.
TensorMap load_tensors(const std::string& path);

/// True when `path` starts with a tensor-file header this build reads.
bool is_tensor_file(const std::string& path);

namespace io {

/// u64 rank, then i64 dims. Reading refuses a rank above 8, a negative
/// dimension, and more than `max_numel` elements (checked without overflow).
void write_shape(std::ostream& os, const Shape& shape);
Shape read_shape(std::istream& is, std::int64_t max_numel,
                 const char* context);

/// The tensor file's body, also PackedModel's dense state: u64 count, then
/// per tensor {string name, shape, f32 data[numel]}.
void write_tensors(std::ostream& os, const TensorMap& tensors);
TensorMap read_tensors(std::istream& is, std::int64_t max_numel,
                       const char* context);

}  // namespace io
}  // namespace crisp
