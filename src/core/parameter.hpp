#ifndef BACO_CORE_PARAMETER_HPP_
#define BACO_CORE_PARAMETER_HPP_

/**
 * @file
 * The RIPOC(+Permutation) parameter hierarchy (paper Sec. 1, Sec. 4.1).
 *
 * Each parameter knows how to sample itself, enumerate its values (when
 * discrete), propose neighbours for local search, measure a normalized
 * distance between two of its values (feeding the GP kernel), and encode a
 * value as numeric features (feeding the random forests).
 *
 * The GP does not call distance() in its hot loops. Each value instead gets
 * one distance coordinate (coord()), computed once per training point and
 * per candidate, and coord_distance() rebuilds distance() from two
 * coordinates with a few integer or floating-point operations, bit for bit.
 */

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distance.hpp"
#include "core/types.hpp"
#include "linalg/rng.hpp"

namespace baco {

/** Parameter type tags. */
enum class ParamKind {
  kReal,
  kInteger,
  kOrdinal,
  kCategorical,
  kPermutation,
};

/**
 * How one dimension turns two distance coordinates (Parameter::coord) into
 * its normalized distance. Plain data, so a caller looping over many pairs
 * branches on the kind, not through a virtual call per pair.
 *
 * Permutation coordinates pack element i of the permutation into bits
 * 3i..3i+2 (m <= 8, so 24 bits), except under Kendall, where bit p is set
 * when the p-th pair (i < j, in row order) is in ascending order (28 bits).
 * Both are exact in a double.
 */
struct CoordMetric {
  enum class Kind {
    kScalar,    ///< |a - b| / scale; a, b transformed values
    kMatch,     ///< 0 when a == b, else 1; categorical index, naive code
    kSpearman,  ///< sum of squared field differences / scale
    kKendall,   ///< popcount(a ^ b) / scale: discordant pairs
    kHamming,   ///< number of differing fields / scale
  };
  Kind kind = Kind::kScalar;
  double scale = 1.0;  ///< the normalizing divisor
  int fields = 0;      ///< permutation length m (packed fields)
};

/** coord_distance() for a metric of kind K (lets a loop over many pairs
 *  pick its kind once). */
template <CoordMetric::Kind K>
inline double
coord_distance_as(const CoordMetric& m, double a, double b)
{
    using Kind = CoordMetric::Kind;
    if constexpr (K == Kind::kScalar) {
        return std::abs(a - b) / m.scale;
    } else if constexpr (K == Kind::kMatch) {
        return a == b ? 0.0 : 1.0;
    } else {
        std::uint32_t ua = static_cast<std::uint32_t>(a);
        std::uint32_t ub = static_cast<std::uint32_t>(b);
        if constexpr (K == Kind::kKendall) {
            return static_cast<double>(__builtin_popcount(ua ^ ub)) / m.scale;
        } else if constexpr (K == Kind::kHamming) {
            // Fold each 3-bit field of a ^ b onto its low bit, then count.
            std::uint32_t x = ua ^ ub;
            x = (x | (x >> 1) | (x >> 2)) & 0x249249u;
            return static_cast<double>(__builtin_popcount(x)) / m.scale;
        } else {
            long long acc = 0;
            for (int f = 0; f < m.fields; ++f, ua >>= 3, ub >>= 3) {
                long long d = static_cast<long long>(ua & 7u) -
                              static_cast<long long>(ub & 7u);
                acc += d * d;
            }
            return static_cast<double>(acc) / m.scale;
        }
    }
}

/** distance(a, b) from the coordinates of a and b (same bits). */
inline double
coord_distance(const CoordMetric& m, double a, double b)
{
    using Kind = CoordMetric::Kind;
    switch (m.kind) {
      case Kind::kScalar:
        return coord_distance_as<Kind::kScalar>(m, a, b);
      case Kind::kMatch:
        return coord_distance_as<Kind::kMatch>(m, a, b);
      case Kind::kSpearman:
        return coord_distance_as<Kind::kSpearman>(m, a, b);
      case Kind::kKendall:
        return coord_distance_as<Kind::kKendall>(m, a, b);
      case Kind::kHamming:
        return coord_distance_as<Kind::kHamming>(m, a, b);
    }
    return 0.0;
}

/** Abstract base for all parameter types. */
class Parameter {
 public:
  Parameter(std::string name, ParamKind kind)
      : name_(std::move(name)), kind_(kind) {}
  virtual ~Parameter() = default;

  const std::string& name() const { return name_; }
  ParamKind kind() const { return kind_; }

  /** True for every kind except kReal. */
  virtual bool is_discrete() const { return true; }

  /** Number of distinct values; 0 for continuous parameters. */
  virtual std::size_t num_values() const = 0;

  /** The i-th value of a discrete parameter. */
  virtual ParamValue value_at(std::size_t i) const = 0;

  /**
   * Index of a value within a discrete parameter's value list.
   * Returns num_values() when not found.
   */
  virtual std::size_t index_of(const ParamValue& v) const = 0;

  /** Uniform random value. */
  virtual ParamValue sample(RngEngine& rng) const = 0;

  /**
   * Local-search neighbours of v: the single-parameter moves reachable from
   * v (paper Sec. 3.3). May use rng for stochastic proposals (continuous
   * perturbations, random permutation swaps).
   */
  virtual std::vector<ParamValue> neighbors(const ParamValue& v,
                                            RngEngine& rng) const = 0;

  /** Normalized distance in [0, 1] between two values (GP kernel input). */
  virtual double distance(const ParamValue& a, const ParamValue& b) const = 0;

  /**
   * Distance coordinate of v: coord_distance(coord_metric(), coord(a),
   * coord(b)) == distance(a, b), bit for bit.
   */
  virtual double coord(const ParamValue& v) const = 0;

  /** How coordinates of this parameter combine into its distance. */
  virtual CoordMetric coord_metric() const = 0;

  /**
   * Numeric value used by the constraint-expression evaluator. Ordered
   * parameters return their value; categoricals their index. Permutations
   * have no scalar meaning and must not appear in scalar expressions.
   */
  virtual double numeric_value(const ParamValue& v) const = 0;

  /** Number of numeric features encode() appends. */
  virtual std::size_t num_features() const = 0;

  /** Append the feature encoding of v to out (random-forest input). */
  virtual void encode(const ParamValue& v,
                      std::vector<double>& out) const = 0;

  /** Render v for logs and reports. */
  virtual std::string value_to_string(const ParamValue& v) const;

 private:
  std::string name_;
  ParamKind kind_;
};

/**
 * Continuous parameter on [lo, hi]; optionally log-scaled, in which case
 * distances and local-search steps operate in log space (paper Sec. 4.1).
 */
class RealParameter : public Parameter {
 public:
  RealParameter(std::string name, double lo, double hi, bool log_scale = false);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  bool log_scale() const { return log_scale_; }

  bool is_discrete() const override { return false; }
  std::size_t num_values() const override { return 0; }
  ParamValue value_at(std::size_t) const override;
  std::size_t index_of(const ParamValue&) const override { return 0; }
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double coord(const ParamValue& v) const override;
  CoordMetric coord_metric() const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return 1; }
  void encode(const ParamValue& v, std::vector<double>& out) const override;

 private:
  double transform(double x) const;
  double lo_, hi_;
  bool log_scale_;
  double span_;  // transformed range width, for normalization
};

/** Integer parameter on [lo, hi] (inclusive); optionally log-scaled. */
class IntegerParameter : public Parameter {
 public:
  IntegerParameter(std::string name, std::int64_t lo, std::int64_t hi,
                   bool log_scale = false);

  std::int64_t lo() const { return lo_; }
  std::int64_t hi() const { return hi_; }
  bool log_scale() const { return log_scale_; }

  std::size_t num_values() const override;
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double coord(const ParamValue& v) const override;
  CoordMetric coord_metric() const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return 1; }
  void encode(const ParamValue& v, std::vector<double>& out) const override;

 private:
  double transform(std::int64_t x) const;
  std::int64_t lo_, hi_;
  bool log_scale_;
  double span_;
};

/**
 * Ordinal parameter: an explicit ascending list of comparable values (e.g.
 * tile sizes {2, 4, ..., 1024}). Optionally log-scaled, which is the natural
 * choice for exponential value lists (paper Sec. 4.1 / 4.2).
 */
class OrdinalParameter : public Parameter {
 public:
  OrdinalParameter(std::string name, std::vector<std::int64_t> values,
                   bool log_scale = false);

  const std::vector<std::int64_t>& values() const { return values_; }
  bool log_scale() const { return log_scale_; }

  std::size_t num_values() const override { return values_.size(); }
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double coord(const ParamValue& v) const override;
  CoordMetric coord_metric() const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return 1; }
  void encode(const ParamValue& v, std::vector<double>& out) const override;

 private:
  double transform(std::int64_t x) const;
  std::vector<std::int64_t> values_;
  bool log_scale_;
  double span_;
};

/**
 * Categorical parameter: unordered labels, stored as indices into the
 * category list. Distance is Hamming (paper Sec. 4.1); features are one-hot.
 */
class CategoricalParameter : public Parameter {
 public:
  CategoricalParameter(std::string name, std::vector<std::string> categories);

  const std::vector<std::string>& categories() const { return categories_; }

  std::size_t num_values() const override { return categories_.size(); }
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double coord(const ParamValue& v) const override;
  CoordMetric coord_metric() const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return categories_.size(); }
  void encode(const ParamValue& v, std::vector<double>& out) const override;
  std::string value_to_string(const ParamValue& v) const override;

 private:
  std::vector<std::string> categories_;
};

/**
 * Permutation parameter over m elements with a configurable semimetric
 * (Spearman by default — the paper's best performer, Sec. 5.3).
 *
 * Values enumerate in lexicographic order of the permutation vector; m is
 * limited to 8 for full enumeration (8! = 40320), which covers all loop
 * reordering spaces in the paper's benchmarks.
 */
class PermutationParameter : public Parameter {
 public:
  PermutationParameter(std::string name, int m,
                       PermutationMetric metric = PermutationMetric::kSpearman);

  int length() const { return m_; }
  PermutationMetric metric() const { return metric_; }
  /** Change the semimetric (used by the Fig. 9 ablation). Set it before
   *  tuning: a fitted GpModel keeps the coordinates of the metric it was
   *  fit under until its next fit. */
  void set_metric(PermutationMetric m) { metric_ = m; }

  std::size_t num_values() const override;
  ParamValue value_at(std::size_t i) const override;
  std::size_t index_of(const ParamValue& v) const override;
  ParamValue sample(RngEngine& rng) const override;
  std::vector<ParamValue> neighbors(const ParamValue& v,
                                    RngEngine& rng) const override;
  double distance(const ParamValue& a, const ParamValue& b) const override;
  double coord(const ParamValue& v) const override;
  CoordMetric coord_metric() const override;
  double numeric_value(const ParamValue& v) const override;
  std::size_t num_features() const override { return static_cast<std::size_t>(m_); }
  void encode(const ParamValue& v, std::vector<double>& out) const override;

 private:
  int m_;
  PermutationMetric metric_;
  std::size_t factorial_;
};

/** Convenience accessors with checked variant access. */
double as_real(const ParamValue& v);
std::int64_t as_int(const ParamValue& v);
const Permutation& as_permutation(const ParamValue& v);

}  // namespace baco

#endif  // BACO_CORE_PARAMETER_HPP_
