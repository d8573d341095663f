/**
 * @file
 * Metrics registry: counters, gauges, log-bucketed latency
 * histograms with percentile estimation, and a periodic sampler
 * that turns live probes into simulated-time series.
 *
 * Everything here is plain host-side bookkeeping — no simulation
 * events are ever scheduled, so metrics collection cannot perturb a
 * run. The sampler is driven from the Supervisor's slicing loop
 * (core/supervisor.hh; the same zero-sim-event technique the
 * watchdog uses).
 */

#ifndef VP_OBS_METRICS_HH
#define VP_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/simulator.hh"

namespace vp {

/** Monotonically increasing count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-written value. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Log-bucketed histogram for long-tailed latency distributions.
 *
 * Bucket 0 holds values <= @p lo; bucket i >= 1 holds
 * (lo * growth^(i-1), lo * growth^i]. Buckets are appended lazily,
 * so an untouched histogram costs a few words. Percentiles are
 * estimated by linear interpolation inside the covering bucket —
 * with the default 1.25 growth the estimate is within ~12% of the
 * true value, plenty for p50/p95/p99 reporting. Exact count, mean,
 * stddev, min and max ride along in an Accumulator.
 */
class Histogram
{
  public:
    explicit Histogram(double lo = 1.0, double growth = 1.25);

    void add(double v);

    /** Index of the bucket @p v falls in. */
    std::size_t bucketIndex(double v) const;
    /** Inclusive upper bound of bucket @p i. */
    double upperBound(std::size_t i) const;
    /** Exclusive lower bound of bucket @p i (-inf for bucket 0). */
    double lowerBound(std::size_t i) const;

    /**
     * Estimated value at quantile @p p in [0, 1]. Returns 0 for an
     * empty histogram (check empty() when rendering).
     */
    double percentile(double p) const;

    bool empty() const { return acc_.empty(); }
    std::uint64_t count() const { return acc_.count(); }
    double mean() const { return acc_.mean(); }
    double stddev() const { return acc_.stddev(); }
    double min() const { return acc_.min(); }
    double max() const { return acc_.max(); }
    const Accumulator& accumulator() const { return acc_; }
    const std::vector<std::uint64_t>& buckets() const
    {
        return buckets_;
    }

  private:
    double lo_;
    double growth_;
    double logGrowth_;
    std::vector<std::uint64_t> buckets_;
    Accumulator acc_;
};

/** One sampled series: parallel (simulated time, value) arrays. */
struct TimeSeries
{
    std::string name;
    std::vector<Tick> t;
    std::vector<double> v;
};

/**
 * Periodic sampler. Probes are registered once (cheap
 * std::function reads of live state — queue depths, resident
 * blocks...); sampleAt() appends one point per series. The caller
 * decides *when* to sample; this class only records.
 */
class Sampler
{
  public:
    explicit Sampler(Tick intervalCycles)
        : interval_(intervalCycles)
    {
    }

    /** Sampling period in simulated cycles (0 = sampling off). */
    Tick interval() const { return interval_; }
    bool enabled() const { return interval_ > 0.0; }

    void
    addSeries(std::string name, std::function<double()> probe)
    {
        series_.push_back({std::move(name), {}, {}});
        probes_.push_back(std::move(probe));
    }

    /** Append one sample of every series, stamped @p now. */
    void
    sampleAt(Tick now)
    {
        for (std::size_t i = 0; i < probes_.size(); ++i) {
            series_[i].t.push_back(now);
            series_[i].v.push_back(probes_[i]());
        }
    }

    const std::vector<TimeSeries>& series() const { return series_; }

  private:
    Tick interval_;
    std::vector<TimeSeries> series_;
    std::vector<std::function<double()>> probes_;
};

/**
 * Name-addressed registry of run metrics. Accessors create on first
 * use; references stay valid for the registry's lifetime (node-based
 * map storage).
 */
class MetricsRegistry
{
  public:
    Counter& counter(const std::string& name)
    {
        return counters_[name];
    }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram&
    histogram(const std::string& name, double lo = 1.0,
              double growth = 1.25)
    {
        auto it = histograms_.find(name);
        if (it == histograms_.end())
            it = histograms_.emplace(name, Histogram(lo, growth))
                     .first;
        return it->second;
    }

    const std::map<std::string, Counter>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, Gauge>& gauges() const
    {
        return gauges_;
    }
    const std::map<std::string, Histogram>& histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace vp

#endif // VP_OBS_METRICS_HH
