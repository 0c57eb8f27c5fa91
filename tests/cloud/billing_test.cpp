#include "cloud/billing.h"

#include <gtest/gtest.h>

namespace hyrd::cloud {
namespace {

PriceSchedule test_prices() {
  return PriceSchedule{
      .storage_gb_month = 0.10,
      .data_in_gb = 0.01,
      .data_out_gb = 0.20,
      .put_class_per_10k = 0.05,
      .get_class_per_10k = 0.004,
      .storage_tiers = {},
      .egress_tiers = {},
  };
}

TEST(BillingMeter, EmptyMonthBillsStorageOnly) {
  BillingMeter meter(test_prices());
  auto bill = meter.close_month(2'000'000'000ull);  // 2 GB resident
  EXPECT_DOUBLE_EQ(bill.storage_cost, 0.20);
  EXPECT_DOUBLE_EQ(bill.total(), 0.20);
  EXPECT_EQ(bill.month, 0);
}

TEST(BillingMeter, RecordsPutAsIngressAndPutTxn) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kPut, 1'000'000'000ull);
  auto bill = meter.close_month(0);
  EXPECT_DOUBLE_EQ(bill.ingress_cost, 0.01);
  EXPECT_EQ(bill.put_class_txns, 1u);
  EXPECT_EQ(bill.bytes_in, 1'000'000'000ull);
}

TEST(BillingMeter, RecordsGetAsEgressAndGetTxn) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kGet, 500'000'000ull);
  auto bill = meter.close_month(0);
  EXPECT_DOUBLE_EQ(bill.egress_cost, 0.10);
  EXPECT_EQ(bill.get_class_txns, 1u);
}

TEST(BillingMeter, ListCreateBilledAsPutClass) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kList, 0);
  meter.record(OpKind::kCreate, 0);
  meter.record(OpKind::kRemove, 0);
  auto bill = meter.close_month(0);
  EXPECT_EQ(bill.put_class_txns, 2u);
  EXPECT_EQ(bill.get_class_txns, 1u);
}

TEST(BillingMeter, TxnCostScalesPer10K) {
  BillingMeter meter(test_prices());
  for (int i = 0; i < 20000; ++i) meter.record(OpKind::kPut, 0);
  auto bill = meter.close_month(0);
  EXPECT_DOUBLE_EQ(bill.txn_cost, 0.10);  // 20K puts = 2 * $0.05
}

TEST(BillingMeter, MonthCloseResetsAccumulators) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kGet, 1'000'000'000ull);
  meter.close_month(0);
  auto second = meter.close_month(0);
  EXPECT_DOUBLE_EQ(second.egress_cost, 0.0);
  EXPECT_EQ(second.month, 1);
}

TEST(BillingMeter, CumulativeAccumulatesStorageEachMonth) {
  BillingMeter meter(test_prices());
  // The Fig. 4 property: each month re-bills all resident data, so
  // cumulative storage cost grows superlinearly with steady ingest.
  for (int m = 1; m <= 3; ++m) {
    meter.close_month(static_cast<std::uint64_t>(m) * 1'000'000'000ull);
  }
  // 0.1 + 0.2 + 0.3 = 0.6
  EXPECT_NEAR(meter.cumulative_cost(), 0.6, 1e-12);
  EXPECT_EQ(meter.bills().size(), 3u);
}

TEST(BillingMeter, OpenMonthTransferCostVisible) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kGet, 1'000'000'000ull);
  EXPECT_DOUBLE_EQ(meter.open_month_transfer_cost(), 0.20 + 0.004 / 1e4 * 1);
}

TEST(BillingMeter, ResetDropsEverything) {
  BillingMeter meter(test_prices());
  meter.record(OpKind::kPut, 100);
  meter.close_month(100);
  meter.reset();
  EXPECT_TRUE(meter.bills().empty());
  EXPECT_DOUBLE_EQ(meter.cumulative_cost(), 0.0);
  EXPECT_DOUBLE_EQ(meter.open_month_transfer_cost(), 0.0);
}

}  // namespace
}  // namespace hyrd::cloud
