// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The paper's §II motivating scenario: a consumer-electronics shop
// outsources its digital-camera catalog (id, manufacturer, model, price),
// clients run price-range queries, and the catalog changes over time.
// The query attribute is `price`; the remaining columns ride in the record
// payload. Demonstrates outsourcing, queries, verification, and updates —
// and, in the final act, the shop's dashboard running verified COUNT/SUM
// aggregate queries with a tampering SP caught red-handed.
//
//   $ ./examples/camera_shop

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/system.h"
#include "dbms/query.h"

using sae::core::SaeSystem;
using sae::storage::Record;

namespace {

constexpr size_t kRecordSize = 128;

// Packs "manufacturer|model" into the record payload.
Record MakeCamera(uint64_t id, const std::string& manufacturer,
                  const std::string& model, uint32_t price_cents) {
  Record r;
  r.id = id;
  r.key = price_cents;
  std::string text = manufacturer + "|" + model;
  std::vector<uint8_t> payload(text.begin(), text.end());
  payload.resize(kRecordSize - 12, 0);
  r.payload = payload;
  return r;
}

std::string CameraName(const Record& r) {
  std::string text(r.payload.begin(), r.payload.end());
  return text.substr(0, text.find('\0'));
}

}  // namespace

int main() {
  SaeSystem::Options options;
  options.record_size = kRecordSize;
  SaeSystem shop(options);

  // The catalog. Prices are in cents — the query attribute.
  std::vector<Record> catalog = {
      MakeCamera(15, "Canon", "SD850 IS", 25000),
      MakeCamera(16, "Canon", "EOS 450D", 69900),
      MakeCamera(17, "Nikon", "D60", 64900),
      MakeCamera(18, "Nikon", "Coolpix P60", 19900),
      MakeCamera(19, "Sony", "DSC-W120", 17900),
      MakeCamera(20, "Sony", "Alpha A200", 59900),
      MakeCamera(21, "Olympus", "FE-340", 15900),
      MakeCamera(22, "Panasonic", "Lumix TZ5", 29900),
      MakeCamera(23, "Pentax", "K200D", 79900),
      MakeCamera(24, "Casio", "EX-Z80", 14900),
  };
  if (!shop.Load(catalog).ok()) return 1;
  std::printf("catalog outsourced: %zu cameras\n\n", catalog.size());

  // "Select all cameras whose price is between 200 and 300 euros."
  auto run_query = [&](uint32_t lo, uint32_t hi) {
    auto outcome = shop.Query(lo, hi);
    std::printf("cameras between %.2f and %.2f euro  (verified: %s)\n",
                lo / 100.0, hi / 100.0,
                outcome.value().verification.ok() ? "yes" : "NO");
    for (const Record& r : outcome.value().results) {
      std::printf("  #%-3llu %-24s %8.2f euro\n",
                  (unsigned long long)r.id, CameraName(r).c_str(),
                  r.key / 100.0);
    }
    std::printf("\n");
  };

  run_query(20000, 30000);

  // The shop discounts the Lumix TZ5: in SAE an update is just "DO tells SP
  // and TE"; no ADS rebuilding, no re-signing.
  std::printf("price drop: Lumix TZ5 299 -> 249 euro\n\n");
  if (!shop.Delete(22).ok()) return 1;
  if (!shop.Insert(MakeCamera(22, "Panasonic", "Lumix TZ5", 24900)).ok()) {
    return 1;
  }

  run_query(20000, 30000);

  // New stock arrives.
  std::printf("new arrival: Fuji FinePix F100fd at 279 euro\n\n");
  if (!shop.Insert(MakeCamera(25, "Fuji", "FinePix F100fd", 27900)).ok()) {
    return 1;
  }

  run_query(20000, 30000);
  run_query(0, 100000000);  // the whole catalog, still verifiable

  // Act 2 — the shop's dashboard: verified aggregates. "How many cameras
  // do we list under 500 euro, and what do they add up to?" The SP ships
  // the authenticated witness along with its claimed COUNT/SUM; the client
  // recomputes both from the witness, so the dashboard numbers carry the
  // same guarantee as the records themselves.
  std::printf("--- dashboard: verified aggregates ---\n\n");
  auto count_req = sae::dbms::QueryRequest::Count(0, 50000);
  auto sum_req = sae::dbms::QueryRequest::Sum(0, 50000);
  auto count = shop.Query(count_req);
  auto sum = shop.Query(sum_req);
  if (!count.ok() || !sum.ok()) return 1;
  std::printf("cameras under 500 euro: COUNT = %llu (verified: %s)\n",
              (unsigned long long)count.value().answer.count,
              count.value().verification.ok() ? "yes" : "NO");
  std::printf("inventory value:        SUM   = %.2f euro (verified: %s)\n\n",
              sum.value().answer.sum / 100.0,
              sum.value().verification.ok() ? "yes" : "NO");

  // A compromised SP now reports a deflated SUM — every witness record it
  // ships is genuine, only the aggregate lies. The client recomputes the
  // SUM from the authenticated witness and rejects the answer.
  sae::adversary::SaeSpAttack lying_sp(sae::adversary::AttackMode::kWrongSum,
                                       &shop.sp());
  auto tampered = shop.ExecuteQuery(sum_req, &lying_sp);
  if (!tampered.ok()) return 1;
  std::printf("tampering SP claims SUM = %.2f euro -> client verdict: %s\n",
              tampered.value().answer.sum / 100.0,
              tampered.value().verification.ok() ? "ACCEPTED (BUG!)"
                                                 : "REJECTED");
  std::printf("  (%s)\n", tampered.value().verification.ToString().c_str());
  return tampered.value().verification.ok() ? 1 : 0;
}
