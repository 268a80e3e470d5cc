#ifndef SETREC_OBS_EXPORT_H_
#define SETREC_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace setrec::obs {

/// Builds the versioned text exposition served by the `STAT?` admin frame
/// and the --stats-every dump. Line-oriented, machine-greppable:
///
///   # setrec-metrics v2
///   counter <name>{<labels>} <value>
///   gauge <name>{<labels>} <value>
///   histogram <name>{<labels>} count=N sum=S max=M p50=V p90=V p99=V p999=V
///   rate <name>{<labels>} <value>
///
/// Labels are a comma-separated key="value" list and may be empty ({}).
/// Histogram values are in the unit named by the metric suffix (_ns, _keys,
/// _bytes). The version line is first. There is one version; consumers
/// reject any other (ValidMetricsExpositionHeader).
class ExpositionWriter {
 public:
  ExpositionWriter();

  void Counter(std::string_view name, std::string_view labels,
               uint64_t value);
  void Gauge(std::string_view name, std::string_view labels, uint64_t value);
  void Histogram(std::string_view name, std::string_view labels,
                 const LatencyHistogram& h);
  /// A derived per-time rate, rendered with three decimals.
  void Rate(std::string_view name, std::string_view labels, double value);

  const std::string& text() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Head(std::string_view type, std::string_view name,
            std::string_view labels);
  std::string out_;
};

/// True iff `text` starts with the `# setrec-metrics v2` version line.
/// Consumers of STAT? replies fail closed on anything else.
bool ValidMetricsExpositionHeader(std::string_view text);

/// Appends every histogram/counter of a (merged) service-layer registry.
/// `kind_names`/`codec_names` label the protocol x codec axes — the caller
/// (service layer) owns those names; obs only knows the array shape.
void AppendRegistry(const MetricRegistry& reg,
                    const char* const kind_names[kProtocolKinds],
                    const char* const codec_names[kWireCodecs],
                    ExpositionWriter& w);

/// Appends a (merged) net-layer pump metric block.
void AppendPumpMetrics(const PumpMetrics& pm, ExpositionWriter& w);

/// Appends the windowed rates as `rate` lines.
void AppendRates(const RateRing::Rates& rates, ExpositionWriter& w);

}  // namespace setrec::obs

#endif  // SETREC_OBS_EXPORT_H_
