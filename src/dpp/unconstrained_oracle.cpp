#include "dpp/unconstrained_oracle.h"

#include "dpp/ensemble.h"
#include "linalg/lu.h"
#include "linalg/schur.h"
#include "support/logsum.h"

namespace pardpp {

UnconstrainedDpp::UnconstrainedDpp(Matrix l, bool symmetric, bool validate)
    : l_(std::move(l)), symmetric_(symmetric) {
  check_arg(l_.square(), "UnconstrainedDpp: matrix not square");
  if (validate) validate_ensemble(l_, symmetric_);
}

const Matrix& UnconstrainedDpp::kernel() const {
  if (!kernel_.has_value()) kernel_ = marginal_kernel(l_);
  return *kernel_;
}

double UnconstrainedDpp::log_partition() const {
  if (!log_partition_.has_value()) log_partition_ = log_partition_function(l_);
  return *log_partition_;
}

double UnconstrainedDpp::log_joint_marginal(std::span<const int> t) const {
  if (t.empty()) return 0.0;
  const auto sld = signed_log_det(kernel().principal(t));
  // det(K_T) is a probability; clamp roundoff-negative values to zero.
  if (sld.sign <= 0) return kNegInf;
  return std::min(sld.log_abs, 0.0);
}

std::vector<double> UnconstrainedDpp::marginals() const {
  const auto& k = kernel();
  std::vector<double> p(ground_size());
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = std::clamp(k(i, i), 0.0, 1.0);
  return p;
}

double UnconstrainedDpp::log_mass(std::span<const int> s) const {
  if (s.empty()) return -log_partition();
  const auto sld = signed_log_det(l_.principal(s));
  if (sld.sign <= 0) return kNegInf;
  return sld.log_abs - log_partition();
}

}  // namespace pardpp
