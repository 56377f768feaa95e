// Recommender adapters the benchmark drives the library through.
//
// TracedMetaDpa repeats core::MetaDpa's sequence of public calls — Dual-CVAE
// fit (paper block 1), GenerateDiverseRatings (block 2), task building and
// MAML meta-training (block 3), per-case Adapt + ScoreWith — with a span
// around each, so every block gets its own row. The benchmark checks that its
// eval results and served answers equal core::MetaDpa's bit for bit, which
// proves the traced run measured the same program.
//
// CaseTimer wraps any Recommender and times each CaseScorer::Score call from
// outside (two clock reads per case), which is how the untraced runs get
// per-case latency without spans.
#ifndef E2EBENCH_MODEL_H_
#define E2EBENCH_MODEL_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metadpa.h"
#include "eval/recommender.h"

namespace e2ebench {

class TracedMetaDpa : public metadpa::eval::Recommender {
 public:
  explicit TracedMetaDpa(const metadpa::core::MetaDpaConfig& config);

  std::string name() const override { return "MetaDPA"; }
  metadpa::Status Fit(const metadpa::eval::TrainContext& ctx) override;
  std::vector<double> ScoreCase(const metadpa::data::EvalCase& eval_case,
                                const std::vector<int64_t>& items) override;
  std::unique_ptr<metadpa::eval::CaseScorer> CloneForScoring() override;

  /// \brief Meta-training tasks (original + augmented) of the last Fit.
  size_t num_tasks() const { return num_tasks_; }

 private:
  metadpa::core::MetaDpaConfig config_;
  std::unique_ptr<metadpa::cvae::DomainAdaptation> adaptation_;
  std::unique_ptr<metadpa::meta::PreferenceModel> model_;
  std::unique_ptr<metadpa::meta::MamlTrainer> trainer_;
  const metadpa::data::DomainData* target_ = nullptr;
  const metadpa::data::InteractionMatrix* train_ = nullptr;
  uint64_t score_seed_ = 0;
  size_t num_tasks_ = 0;
};

/// \brief Delegates everything to `inner` and records the wall time of each
/// scorer call (ms). Samples are merged when a scorer handle is destroyed.
class CaseTimer : public metadpa::eval::Recommender {
 public:
  explicit CaseTimer(metadpa::eval::Recommender* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  metadpa::Status Fit(const metadpa::eval::TrainContext& ctx) override {
    return inner_->Fit(ctx);
  }
  void BeginScenario(const metadpa::data::ScenarioData& scenario,
                     const metadpa::eval::TrainContext& ctx) override {
    inner_->BeginScenario(scenario, ctx);
  }
  std::vector<double> ScoreCase(const metadpa::data::EvalCase& eval_case,
                                const std::vector<int64_t>& items) override;
  std::unique_ptr<metadpa::eval::CaseScorer> CloneForScoring() override;

  /// \brief Every recorded case time so far (ms).
  std::vector<double> case_ms() const;
  void Merge(const std::vector<double>& samples);

 private:
  metadpa::eval::Recommender* inner_;
  mutable std::mutex mutex_;
  std::vector<double> case_ms_;  // guarded by mutex_
};

}  // namespace e2ebench

#endif  // E2EBENCH_MODEL_H_
