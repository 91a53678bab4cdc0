// Tests for the core algorithm layer: the Trainer loop, the eqn-5 pruner
// update, and the Algorithm 1 controller semantics (iteration structure,
// frozen-layer exemption, fixed-point termination, record bookkeeping).
// Training runs use width-scaled models on tiny synthetic data so each test
// stays in the seconds range while exercising the full code path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "backend/registry.h"
#include "core/ad_pruner.h"
#include "core/ad_quantizer.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "models/vgg.h"
#include "tensor/parallel.h"

namespace adq::core {
namespace {

data::TrainTestSplit tiny_data(std::int64_t classes = 4, std::int64_t train = 96,
                               std::int64_t test = 48) {
  data::SyntheticSpec spec = data::synthetic_cifar10_spec();
  spec.num_classes = classes;
  spec.train_count = train;
  spec.test_count = test;
  spec.noise = 0.25f;
  return data::make_synthetic(spec);
}

std::unique_ptr<models::QuantizableModel> tiny_vgg(std::int64_t classes, Rng& rng) {
  models::VggConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = classes;
  return models::build_vgg19(cfg, rng);
}

TEST(Pruner, Eqn5Update) {
  // C = round(C * AD): 64 * 0.3 = 19.2 -> 19.
  const auto out = update_channels({64, 64, 64}, {0.3, 1.0, 0.01},
                                   {false, false, false});
  EXPECT_EQ(out[0], 19);
  EXPECT_EQ(out[1], 64);
  EXPECT_EQ(out[2], 1);  // floored at min_channels
}

TEST(Pruner, FrozenUnitsUntouched) {
  const auto out = update_channels({64, 64}, {0.1, 0.1}, {true, false});
  EXPECT_EQ(out[0], 64);
  EXPECT_EQ(out[1], 6);
}

TEST(Pruner, MinChannelsConfigurable) {
  PrunerConfig cfg;
  cfg.min_channels = 8;
  const auto out = update_channels({64}, {0.01}, {false}, cfg);
  EXPECT_EQ(out[0], 8);
}

TEST(Pruner, SizeMismatchThrows) {
  EXPECT_THROW(update_channels({64}, {0.5, 0.5}, {false}), std::invalid_argument);
}

TEST(Trainer, LossDecreasesOnLearnableTask) {
  Rng rng(21);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  TrainerConfig cfg;
  cfg.batch_size = 16;
  cfg.lr = 1e-3f;
  Trainer trainer(*model, split.train, split.test, cfg);
  const EpochStats first = trainer.run_epoch();
  EpochStats last{};
  for (int e = 0; e < 3; ++e) last = trainer.run_epoch();
  EXPECT_LT(last.train_loss, first.train_loss);
  EXPECT_GT(last.train_accuracy, 0.5);  // 4 classes, chance = 0.25
}

TEST(Trainer, EpochCommitsDensities) {
  Rng rng(22);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  const EpochStats stats = trainer.run_epoch();
  EXPECT_EQ(stats.densities.size(), static_cast<std::size_t>(model->unit_count()));
  for (double d : stats.densities) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  // History has exactly one committed epoch per unit.
  for (const auto& h : model->density_histories()) EXPECT_EQ(h.size(), 1u);
}

TEST(Trainer, EvaluateRestoresTrainingState) {
  Rng rng(23);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  trainer.run_epoch();
  const double acc = trainer.evaluate();
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  // Meters must be active again after evaluate() so training keeps counting.
  EXPECT_TRUE(model->unit(1).meter.active());
  // And eval must not have contaminated the fresh epoch accumulators.
  EXPECT_EQ(model->unit(1).meter.observed_total(), 0);
}

// Everything two AD training epochs produce: per-epoch loss and accuracy,
// the committed per-unit densities, and every parameter tensor after.
struct TrainingRun {
  std::vector<double> losses, accuracies;
  std::vector<std::vector<double>> densities;
  std::vector<std::vector<float>> params;
};

// Two Trainer::run_epoch on a BN-free VGG19 w0.125 (the paper's AD regime)
// at the Table II(a) iteration-2 bits, every op on backend `bk`. Runs at a
// one-thread budget: Conv2d::backward merges per-chunk weight gradients in
// completion order, so only a serial run is reproducible bit for bit.
TrainingRun train_two_epochs(const backend::Backend& bk) {
  const backend::Backend* prev = backend::exchange_backend_override(&bk);
  ScopedThreadBudget serial(1);
  Rng rng(31);
  const data::TrainTestSplit split = tiny_data(4, 64, 32);
  models::VggConfig mc;
  mc.width_mult = 0.125;
  mc.num_classes = 4;
  mc.use_batchnorm = false;
  auto model = models::build_vgg19(mc, rng);
  model->apply_bit_policy(quant::BitWidthPolicy(
      {16, 4, 5, 4, 3, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3, 3, 16}));
  TrainerConfig cfg;
  cfg.batch_size = 32;
  cfg.lr = 3e-4f;
  cfg.seed = 5;
  Trainer trainer(*model, split.train, split.test, cfg);
  TrainingRun run;
  for (int e = 0; e < 2; ++e) {
    const EpochStats st = trainer.run_epoch();
    run.losses.push_back(st.train_loss);
    run.accuracies.push_back(st.train_accuracy);
    run.densities.push_back(st.densities);
  }
  for (nn::Parameter* p : model->parameters()) {
    run.params.emplace_back(p->value.data(), p->value.data() + p->value.numel());
  }
  backend::exchange_backend_override(prev);
  return run;
}

template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Training is bit-identical on every backend: the float GEMM, fake quant
// and im2col a training step runs all keep the portable evaluation order,
// so the paper-table benches read the same numbers whichever backend the
// host resolves.
TEST(Trainer, BitIdenticalAcrossBackends) {
  const TrainingRun want =
      train_two_epochs(*backend::find_backend("portable"));
  ASSERT_EQ(want.losses.size(), 2u);
  ASSERT_TRUE(std::isfinite(want.losses[1]));
  for (const backend::Backend* bk : backend::available_backends()) {
    if (std::strcmp(bk->name, "portable") == 0) continue;
    SCOPED_TRACE(bk->name);
    const TrainingRun got = train_two_epochs(*bk);
    EXPECT_TRUE(bytes_equal(want.losses, got.losses));
    EXPECT_TRUE(bytes_equal(want.accuracies, got.accuracies));
    ASSERT_EQ(want.densities.size(), got.densities.size());
    for (std::size_t e = 0; e < want.densities.size(); ++e) {
      EXPECT_TRUE(bytes_equal(want.densities[e], got.densities[e]))
          << "epoch " << e;
    }
    ASSERT_EQ(want.params.size(), got.params.size());
    for (std::size_t i = 0; i < want.params.size(); ++i) {
      EXPECT_TRUE(bytes_equal(want.params[i], got.params[i]))
          << "parameter " << i;
    }
  }
}

TEST(Controller, RunsIterationsAndQuantizes) {
  Rng rng(24);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  TrainerConfig tcfg;
  tcfg.batch_size = 16;
  Trainer trainer(*model, split.train, split.test, tcfg);
  AdqConfig cfg;
  cfg.max_iterations = 3;
  cfg.min_epochs_per_iter = 2;
  cfg.max_epochs_per_iter = 4;
  cfg.detector = ad::SaturationDetector(2, 0.05);
  AdQuantizationController controller(*model, trainer, cfg);
  const RunResult result = controller.run();

  ASSERT_GE(result.iterations.size(), 2u);
  // Iteration 1 is the 16-bit model.
  for (int b : result.iterations[0].bits.bits()) EXPECT_EQ(b, 16);
  // After the first eqn-3 update, at least one non-frozen layer dropped.
  const auto& bits2 = result.iterations[1].bits.bits();
  bool any_lower = false;
  for (std::size_t i = 1; i + 1 < bits2.size(); ++i) any_lower |= bits2[i] < 16;
  EXPECT_TRUE(any_lower);
  // Frozen first conv and final FC stay at 16 bits in every iteration.
  for (const IterationResult& ir : result.iterations) {
    EXPECT_EQ(ir.bits.at(0), 16);
    EXPECT_EQ(ir.bits.at(16), 16);
  }
  // Energy efficiency must exceed 1 once quantized.
  EXPECT_GT(result.iterations.back().energy_efficiency, 1.0);
  // Trajectories are epoch-aligned.
  const std::size_t epochs = result.test_accuracy_per_epoch.size();
  for (const auto& tr : result.ad_per_unit) EXPECT_EQ(tr.size(), epochs);
  EXPECT_EQ(result.train_loss_per_epoch.size(), epochs);
}

TEST(Controller, TrainingComplexityBelowBaseline) {
  Rng rng(25);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  AdqConfig cfg;
  cfg.max_iterations = 3;
  cfg.min_epochs_per_iter = 2;
  cfg.max_epochs_per_iter = 3;
  cfg.detector = ad::SaturationDetector(2, 0.05);
  AdQuantizationController controller(*model, trainer, cfg);
  const RunResult result = controller.run();
  // Quantized iterations cost less than 16-bit epochs, so the eqn-4 sum
  // normalised by total epochs must be < 1.
  EXPECT_LT(result.training_complexity_vs_baseline, 1.0);
  EXPECT_GT(result.training_complexity_vs_baseline, 0.0);
}

TEST(Controller, PruningShrinksChannels) {
  Rng rng(26);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  AdqConfig cfg;
  cfg.max_iterations = 2;
  cfg.min_epochs_per_iter = 2;
  cfg.max_epochs_per_iter = 3;
  cfg.detector = ad::SaturationDetector(2, 0.05);
  cfg.prune = true;
  AdQuantizationController controller(*model, trainer, cfg);
  const RunResult result = controller.run();
  ASSERT_GE(result.iterations.size(), 2u);
  const auto& ch1 = result.iterations[0].channels;
  const auto& ch2 = result.iterations[1].channels;
  bool any_pruned = false;
  for (std::size_t i = 0; i + 1 < ch1.size(); ++i) any_pruned |= ch2[i] < ch1[i];
  EXPECT_TRUE(any_pruned);
  // The model still runs forward after pruning.
  Tensor x(Shape{2, 3, 32, 32});
  Rng(1).fill_normal(x, 0.0f, 1.0f);
  EXPECT_EQ(model->forward(x).shape(), Shape({2, 4}));
}

TEST(Controller, HardwareGridSnapsBits) {
  Rng rng(27);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  AdqConfig cfg;
  cfg.max_iterations = 2;
  cfg.min_epochs_per_iter = 2;
  cfg.max_epochs_per_iter = 3;
  cfg.detector = ad::SaturationDetector(2, 0.05);
  cfg.hardware_grid = true;
  AdQuantizationController controller(*model, trainer, cfg);
  controller.run();
  for (std::size_t i = 0; i < static_cast<std::size_t>(model->unit_count()); ++i) {
    const int b = model->bit_policy().at(static_cast<int>(i));
    EXPECT_TRUE(b == 2 || b == 4 || b == 8 || b == 16) << "unit " << i << " bits " << b;
  }
}

TEST(Controller, FinalEpochsExtendLastIteration) {
  Rng rng(28);
  const data::TrainTestSplit split = tiny_data();
  auto model = tiny_vgg(4, rng);
  Trainer trainer(*model, split.train, split.test);
  AdqConfig cfg;
  cfg.max_iterations = 1;
  cfg.min_epochs_per_iter = 2;
  cfg.max_epochs_per_iter = 2;
  cfg.final_epochs = 2;
  cfg.detector = ad::SaturationDetector(2, 0.05);
  AdQuantizationController controller(*model, trainer, cfg);
  const RunResult result = controller.run();
  EXPECT_EQ(result.iterations.back().epochs, 4);  // 2 trained + 2 final
  EXPECT_EQ(result.test_accuracy_per_epoch.size(), 4u);
}

}  // namespace
}  // namespace adq::core
