#include "model.h"

#include <algorithm>
#include <chrono>

#include "meta/tasks.h"
#include "tensor/ops.h"
#include "trace.h"

namespace e2ebench {
namespace md = metadpa;
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Same calls, same order, same rng streams as core::MetaDpa's per-case
// scoring; the spans are the only addition.
std::vector<double> ScoreCaseTraced(const md::meta::MamlTrainer& trainer,
                                    const md::data::DomainData& target,
                                    const md::data::InteractionMatrix& train,
                                    uint64_t score_seed,
                                    const md::data::EvalCase& eval_case,
                                    const std::vector<int64_t>& items) {
  ScopedSpan score("score", eval_case.user);
  md::meta::Task task;
  {
    ScopedSpan span("score.task", eval_case.user);
    md::Rng case_rng(md::eval::CaseSeed(score_seed, eval_case));
    std::vector<int64_t> positives =
        md::meta::MergedSupport(eval_case.user, eval_case.support_items, train);
    task = md::meta::BuildAdaptationTask(eval_case.user, positives, target.ratings,
                                         target.user_content, target.item_content,
                                         /*negatives_per_positive=*/1, &case_rng);
  }
  md::nn::ParamList fast;
  {
    ScopedSpan span("score.adapt", eval_case.user);
    fast = trainer.Adapt(task, trainer.config().finetune_steps);
  }
  ScopedSpan span("score.forward", eval_case.user);
  md::Tensor item_rows = md::t::IndexSelect(target.item_content, items);
  const int64_t width = target.user_content.dim(1);
  md::Tensor user_rows({static_cast<int64_t>(items.size()), width});
  for (size_t r = 0; r < items.size(); ++r) {
    std::copy(target.user_content.data() + eval_case.user * width,
              target.user_content.data() + (eval_case.user + 1) * width,
              user_rows.data() + static_cast<int64_t>(r) * width);
  }
  return trainer.ScoreWith(fast, user_rows, item_rows);
}

class TracedScorer : public md::eval::CaseScorer {
 public:
  TracedScorer(const md::meta::MamlTrainer* trainer, const md::data::DomainData* target,
               const md::data::InteractionMatrix* train, uint64_t score_seed)
      : trainer_(trainer), target_(target), train_(train), score_seed_(score_seed) {}

  std::vector<double> Score(const md::data::EvalCase& eval_case,
                            const std::vector<int64_t>& items) override {
    return ScoreCaseTraced(*trainer_, *target_, *train_, score_seed_, eval_case, items);
  }

 private:
  const md::meta::MamlTrainer* trainer_;
  const md::data::DomainData* target_;
  const md::data::InteractionMatrix* train_;
  uint64_t score_seed_;
};

class TimedScorer : public md::eval::CaseScorer {
 public:
  TimedScorer(CaseTimer* owner, std::unique_ptr<md::eval::CaseScorer> inner)
      : owner_(owner), inner_(std::move(inner)) {}
  ~TimedScorer() override { owner_->Merge(samples_); }
  TimedScorer(const TimedScorer&) = delete;
  TimedScorer& operator=(const TimedScorer&) = delete;

  std::vector<double> Score(const md::data::EvalCase& eval_case,
                            const std::vector<int64_t>& items) override {
    const double start = NowMs();
    std::vector<double> scores = inner_->Score(eval_case, items);
    samples_.push_back(NowMs() - start);
    return scores;
  }

 private:
  CaseTimer* owner_;
  std::unique_ptr<md::eval::CaseScorer> inner_;
  std::vector<double> samples_;
};

}  // namespace

TracedMetaDpa::TracedMetaDpa(const md::core::MetaDpaConfig& config)
    : config_(md::core::ApplyVariant(config, md::core::MetaDpaVariant::kFull)) {}

md::Status TracedMetaDpa::Fit(const md::eval::TrainContext& ctx) {
  target_ = &ctx.dataset->target;
  train_ = &ctx.splits->train;
  score_seed_ = config_.seed ^ ctx.seed;
  md::Rng rng(config_.seed + ctx.seed);

  md::cvae::AdaptationReport report;
  {
    ScopedSpan span("cvae.fit");
    adaptation_ = std::make_unique<md::cvae::DomainAdaptation>(config_.adaptation);
    report = adaptation_->Fit(*ctx.dataset);
  }
  if (!report.health.ok()) return report.health;
  std::vector<md::Tensor> generated;
  {
    ScopedSpan span("cvae.generate");
    generated = adaptation_->GenerateDiverseRatings(*target_);
  }
  {
    ScopedSpan span("maml.init");
    md::meta::PreferenceModelConfig model_config = config_.model;
    model_config.content_dim = target_->user_content.dim(1);
    model_ = std::make_unique<md::meta::PreferenceModel>(model_config, &rng);
    trainer_ = std::make_unique<md::meta::MamlTrainer>(model_.get(), config_.maml);
  }
  std::vector<md::meta::Task> tasks;
  {
    ScopedSpan span("meta.tasks");
    tasks = md::meta::BuildTasks(ctx.splits->train, target_->user_content,
                                 target_->item_content, config_.tasks, &rng);
    if (config_.use_augmentation) {
      std::vector<bool> keep_item(static_cast<size_t>(target_->num_items()), false);
      for (int64_t i = 0; i < target_->num_items(); ++i) {
        keep_item[static_cast<size_t>(i)] =
            ctx.splits->train.ItemDegree(i) >= config_.min_item_degree_for_augmentation;
      }
      const size_t original = tasks.size();
      for (const md::Tensor& ratings : generated) {
        std::vector<md::meta::Task> augmented = md::meta::RelabelTasks(
            std::vector<md::meta::Task>(tasks.begin(), tasks.begin() + original), ratings);
        for (md::meta::Task& task : augmented) {
          task.loss_weight = config_.augmented_weight;
          task = md::meta::FilterTaskItems(task, keep_item, target_->user_content,
                                           target_->item_content);
          if (task.query_size() > 0) tasks.push_back(std::move(task));
        }
      }
    }
  }
  num_tasks_ = tasks.size();
  if (tasks.empty()) return md::Status::FailedPrecondition("no meta-training tasks");
  ScopedSpan span("maml.train");
  return trainer_->TrainWithStatus(tasks, nullptr);
}

std::vector<double> TracedMetaDpa::ScoreCase(const md::data::EvalCase& eval_case,
                                             const std::vector<int64_t>& items) {
  return ScoreCaseTraced(*trainer_, *target_, *train_, score_seed_, eval_case, items);
}

std::unique_ptr<md::eval::CaseScorer> TracedMetaDpa::CloneForScoring() {
  if (trainer_ == nullptr) return nullptr;
  return std::make_unique<TracedScorer>(trainer_.get(), target_, train_, score_seed_);
}

std::vector<double> CaseTimer::ScoreCase(const md::data::EvalCase& eval_case,
                                         const std::vector<int64_t>& items) {
  const double start = NowMs();
  std::vector<double> scores = inner_->ScoreCase(eval_case, items);
  Merge({NowMs() - start});
  return scores;
}

std::unique_ptr<md::eval::CaseScorer> CaseTimer::CloneForScoring() {
  std::unique_ptr<md::eval::CaseScorer> inner = inner_->CloneForScoring();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedScorer>(this, std::move(inner));
}

std::vector<double> CaseTimer::case_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return case_ms_;
}

void CaseTimer::Merge(const std::vector<double>& samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  case_ms_.insert(case_ms_.end(), samples.begin(), samples.end());
}

}  // namespace e2ebench
