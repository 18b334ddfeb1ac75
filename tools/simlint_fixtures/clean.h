// Fixture: fully conformant header; simlint must report zero findings,
// including for the explicitly suppressed line below.
#ifndef HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_
#define HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_

namespace hib {

struct CleanParams {
  double lambda_per_ms = 0.0;
  double budget_seconds = 0.0;
};

inline double LegacyBudgetMs(const CleanParams& p) {
  return p.budget_seconds * 1000.0;  // simlint: allow(HIB009)
}

}  // namespace hib

#endif  // HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_
