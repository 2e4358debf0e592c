// Request generators for the policy-server load tests: a Zipf(s=1)
// sampler over vertex indices and the read and admit lines drawn from it.

#ifndef TESTS_SERVER_LOAD_H_
#define TESTS_SERVER_LOAD_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/prng.h"

namespace tg_server {

// Zipf(s=1) over [0, n) by inverse CDF on the harmonic weights: vertex 0
// is the hot key and the tail is long.
class Zipf {
 public:
  Zipf(size_t n, uint64_t seed) : prng_(seed), cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    total_ = sum;
  }

  size_t Next() {
    const double u = static_cast<double>(prng_.NextBelow(1u << 30)) /
                     static_cast<double>(1u << 30) * total_;
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  tg_util::Prng& prng() { return prng_; }

 private:
  tg_util::Prng prng_;
  std::vector<double> cdf_;
  double total_ = 0.0;
};

// One read line with Zipfian endpoints: a quarter each of can_know,
// can_knowf, can_share r and knowable.
inline std::string MakeReadLine(Zipf& zipf, const std::vector<std::string>& names) {
  const std::string& a = names[zipf.Next()];
  const std::string& b = names[zipf.Next()];
  switch (zipf.prng().NextBelow(4)) {
    case 0:
      return "can_know " + a + " " + b;
    case 1:
      return "can_knowf " + a + " " + b;
    case 2:
      return "can_share r " + a + " " + b;
    default:
      return "knowable " + a;
  }
}

// One admit line: half creates (each advances the epoch), half random
// take/grant rules that also reach the veto and rejection paths.
inline std::string MakeAdmitLine(Zipf& zipf, const std::vector<std::string>& subjects,
                                 const std::vector<std::string>& names, size_t* create_seq) {
  const std::string& s = subjects[zipf.Next() % subjects.size()];
  if (zipf.prng().NextBelow(2) == 0) {
    return "admit create " + s + " object rw bx" + std::to_string((*create_seq)++);
  }
  const std::string& y = names[zipf.Next()];
  const std::string& z = names[zipf.Next()];
  const char* rights = zipf.prng().NextBelow(2) == 0 ? "r" : "w";
  return (zipf.prng().NextBelow(2) == 0 ? "admit take " : "admit grant ") + s + " " + y + " " +
         z + " " + rights;
}

}  // namespace tg_server

#endif  // TESTS_SERVER_LOAD_H_
