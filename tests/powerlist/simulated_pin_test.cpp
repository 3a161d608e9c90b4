// Pins execute_simulated's schedule bit for bit. The expected figures were
// recorded from the executor that traced the task tree during its own
// recursion; the executor now prices the balanced tree in closed form
// (simmachine::TaskTrace::balanced), and every figure must stay identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "powerlist/algorithms/fft.hpp"
#include "powerlist/algorithms/polynomial.hpp"
#include "powerlist/executors.hpp"
#include "simmachine/scheduler.hpp"

namespace {

using pls::powerlist::Complex;
using pls::powerlist::execute_sequential;
using pls::powerlist::execute_simulated;
using pls::powerlist::view_of;
using pls::simmachine::CostModel;
using pls::simmachine::SimResult;
using pls::simmachine::Simulator;

struct Pin {
  unsigned processors;
  double makespan_ns;
  double work_ns;
  double pure_work_ns;
  double span_ns;
  std::uint64_t steals;
  std::uint64_t segments;
};

void expect_pinned(const SimResult& sim, const Pin& pin) {
  SCOPED_TRACE(testing::Message() << "P=" << pin.processors);
  EXPECT_EQ(sim.processors, pin.processors);
  EXPECT_EQ(sim.makespan_ns, pin.makespan_ns);
  EXPECT_EQ(sim.work_ns, pin.work_ns);
  EXPECT_EQ(sim.pure_work_ns, pin.pure_work_ns);
  EXPECT_EQ(sim.span_ns, pin.span_ns);
  EXPECT_EQ(sim.steals, pin.steals);
  EXPECT_EQ(sim.segments, pin.segments);
}

TEST(SimulatedPin, PolynomialScheduleIsUnchanged) {
  // n = 2^10, leaf 4: 256 leaves + 255 descends + 255 combines.
  std::vector<double> coeffs(1u << 10);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = 1.0 / static_cast<double>(i + 1);
  }
  const pls::powerlist::PolynomialFunction<double> vp;
  const Pin pins[] = {
      {1, 0x1.35d1p+16, 0x1.35d1p+16, 0x1.5fap+11, 0x1p+5, 0, 766},
      {2, 0x1.3df8p+15, 0x1.35d1p+16, 0x1.5fap+11, 0x1p+5, 2, 766},
      {8, 0x1.a9bp+13, 0x1.35d1p+16, 0x1.5fap+11, 0x1p+5, 32, 766},
  };
  for (const Pin& pin : pins) {
    const auto ex = execute_simulated(Simulator(CostModel{}, pin.processors),
                                      vp, view_of(std::as_const(coeffs)), 0.5,
                                      4);
    EXPECT_EQ(ex.result, 0x1.62e42fefa39eep+0);
    expect_pinned(ex.sim, pin);
  }
}

TEST(SimulatedPin, FftScheduleIsUnchanged) {
  // n = 2^8, leaf 1: 256 leaves + 255 descends + 255 combines.
  std::vector<Complex> z(1u << 8);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = {static_cast<double>(i % 7), -static_cast<double>(i % 3)};
  }
  const pls::powerlist::FftFunction fft;
  const auto expected = execute_sequential(fft, view_of(std::as_const(z)));
  const Pin pins[] = {
      {1, 0x1.7bd4p+16, 0x1.7bd4p+16, 0x1.44p+14, 0x1.3edp+12, 0, 766},
      {2, 0x1.8a84p+15, 0x1.7bd4p+16, 0x1.44p+14, 0x1.3edp+12, 1, 766},
      {8, 0x1.35bcp+14, 0x1.7bd4p+16, 0x1.44p+14, 0x1.3edp+12, 25, 766},
  };
  for (const Pin& pin : pins) {
    const auto ex = execute_simulated(Simulator(CostModel{}, pin.processors),
                                      fft, view_of(std::as_const(z)));
    EXPECT_EQ(ex.result, expected);
    expect_pinned(ex.sim, pin);
  }
}

}  // namespace
