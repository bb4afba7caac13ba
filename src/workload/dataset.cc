// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the UNF/SKW dataset generators (workload/dataset.h).

#include "workload/dataset.h"

#include <algorithm>

#include "storage/record.h"
#include "util/random.h"
#include "util/zipf.h"

namespace sae::workload {

std::vector<storage::Record> GenerateDataset(const DatasetSpec& spec) {
  storage::RecordCodec codec(spec.record_size);
  std::vector<storage::Record> records;
  records.reserve(spec.cardinality);

  if (spec.distribution == Distribution::kUniform) {
    Rng rng(spec.seed);
    for (size_t i = 0; i < spec.cardinality; ++i) {
      uint32_t key = uint32_t(rng.NextRange(0, spec.domain_max));
      records.push_back(codec.MakeRecord(storage::RecordId(i + 1), key));
    }
  } else {
    SkewedKeyGenerator gen(spec.domain_max, spec.zipf_theta, spec.zipf_buckets,
                           spec.seed);
    for (size_t i = 0; i < spec.cardinality; ++i) {
      records.push_back(
          codec.MakeRecord(storage::RecordId(i + 1), gen.Next()));
    }
  }

  std::sort(records.begin(), records.end(), storage::ByKeyId);
  return records;
}

}  // namespace sae::workload
