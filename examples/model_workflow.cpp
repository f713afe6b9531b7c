// Production model workflow: select hyper-parameters by validation
// holdout, fit SMFL on the full data, persist the model, and reload it in
// a (simulated) serving process that imputes the rows by fold-in.
//
//   ./build/examples/model_workflow [--rows=600]

#include <cstdio>
#include <filesystem>

#include "src/common/flags.h"
#include "src/core/fold_in.h"
#include "src/core/model_io.h"
#include "src/core/model_selection.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"

using namespace smfl;
using la::Index;
using la::Matrix;

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  const Index rows = static_cast<Index>(*flags->GetInt("rows", 600));

  // --- Training data with 10% missing values.
  auto dataset = data::MakeEconomicLike(rows, /*seed=*/21);
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  Matrix truth = normalizer->Transform(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.1;
  inject.seed = 33;
  auto injection = data::InjectMissing(dataset->table, inject);
  Matrix input = data::ApplyMask(truth, injection->observed);

  // --- 1. Hyper-parameter selection on a validation holdout.
  core::SelectionGrid grid;
  grid.lambdas = {0.05, 0.5, 1.0};
  grid.ranks = {6, 10};
  grid.base.max_iterations = 150;
  auto selection =
      core::SelectSmflOptions(input, injection->observed, 2, grid);
  if (!selection.ok()) {
    std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
    return 1;
  }
  std::printf("grid search over %zu candidates:\n",
              selection->candidates.size());
  for (const auto& c : selection->candidates) {
    std::printf("  lambda=%-5g K=%-3lld p=%lld  validation RMS %.4f%s\n",
                c.lambda, static_cast<long long>(c.rank),
                static_cast<long long>(c.num_neighbors), c.validation_rms,
                c.validation_rms == selection->best_validation_rms
                    ? "  <- selected"
                    : "");
  }

  // --- 2. Fit on the full observed data with the winning options.
  auto model =
      core::FitSmfl(input, injection->observed, 2, selection->best);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("final fit: %d iterations, objective %.4f\n",
              model->report.iterations, model->report.final_objective());

  // --- 3. Persist.
  const std::string path =
      (std::filesystem::temp_directory_path() / "smfl_workflow_model.txt")
          .string();
  if (auto st = core::SaveModel(*model, path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model saved to %s\n", path.c_str());

  // --- 4. "Serving": reload and impute.
  auto served = core::LoadModel(path);
  std::remove(path.c_str());
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  // The model file holds V, the landmarks and mean(U), not the training
  // U, so the serving process folds the rows in against the frozen V.
  auto folded = core::FoldIn(*served, input, injection->observed);
  if (!folded.ok()) {
    std::fprintf(stderr, "%s\n", folded.status().ToString().c_str());
    return 1;
  }
  Matrix completed =
      data::CombineByMask(input, *folded, injection->observed);
  auto rms = exp::RmsOverMask(completed, truth,
                              injection->observed.Complement());
  std::printf("imputation RMS from the reloaded model (fold-in): %.4f\n",
              *rms);
  return 0;
}
