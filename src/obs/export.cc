#include "obs/export.h"

#include <cstdio>

namespace setrec::obs {

namespace {

constexpr char kVersionLine[] = "# setrec-metrics v2\n";

void AppendU64(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

}  // namespace

bool ValidMetricsExpositionHeader(std::string_view text) {
  // The whole version line must match ("v21" is not v2); a bare header
  // with no metrics may lack the newline.
  const std::string_view line = kVersionLine;
  return text.substr(0, line.size()) == line ||
         text == line.substr(0, line.size() - 1);
}

ExpositionWriter::ExpositionWriter() : out_(kVersionLine) {}

void ExpositionWriter::Head(std::string_view type, std::string_view name,
                            std::string_view labels) {
  out_.append(type);
  out_.push_back(' ');
  out_.append(name);
  out_.push_back('{');
  out_.append(labels);
  out_.push_back('}');
  out_.push_back(' ');
}

void ExpositionWriter::Counter(std::string_view name, std::string_view labels,
                               uint64_t value) {
  Head("counter", name, labels);
  AppendU64(&out_, value);
  out_.push_back('\n');
}

void ExpositionWriter::Gauge(std::string_view name, std::string_view labels,
                             uint64_t value) {
  Head("gauge", name, labels);
  AppendU64(&out_, value);
  out_.push_back('\n');
}

void ExpositionWriter::Histogram(std::string_view name,
                                 std::string_view labels,
                                 const LatencyHistogram& h) {
  Head("histogram", name, labels);
  out_.append("count=");
  AppendU64(&out_, h.count());
  out_.append(" sum=");
  AppendU64(&out_, h.sum());
  out_.append(" max=");
  AppendU64(&out_, h.max());
  out_.append(" p50=");
  AppendU64(&out_, h.p50());
  out_.append(" p90=");
  AppendU64(&out_, h.p90());
  out_.append(" p99=");
  AppendU64(&out_, h.p99());
  out_.append(" p999=");
  AppendU64(&out_, h.p999());
  out_.push_back('\n');
}

void ExpositionWriter::Rate(std::string_view name, std::string_view labels,
                            double value) {
  Head("rate", name, labels);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out_.append(buf);
  out_.push_back('\n');
}

void AppendRegistry(const MetricRegistry& reg,
                    const char* const kind_names[kProtocolKinds],
                    const char* const codec_names[kWireCodecs],
                    ExpositionWriter& w) {
  for (size_t k = 0; k < kProtocolKinds; ++k) {
    for (size_t c = 0; c < kWireCodecs; ++c) {
      std::string labels = "proto=\"";
      labels += kind_names[k];
      labels += "\",codec=\"";
      labels += codec_names[c];
      labels += "\"";
      if (reg.session_latency[k][c].count() > 0) {
        w.Histogram("setrec_session_latency_ns", labels,
                    reg.session_latency[k][c]);
      }
      if (reg.round_latency[k][c].count() > 0) {
        w.Histogram("setrec_round_latency_ns", labels,
                    reg.round_latency[k][c]);
      }
    }
  }
  w.Histogram("setrec_flush_latency_ns", "", reg.flush_latency);
  w.Histogram("setrec_flush_occupancy_keys", "", reg.flush_occupancy);
  w.Histogram("setrec_lease_wait_ns", "", reg.lease_wait);
  w.Histogram("setrec_lease_hold_ns", "", reg.lease_hold);
  w.Counter("setrec_decode_failures", "", reg.decode_failures);
  w.Counter("setrec_retry_rounds", "", reg.retry_rounds);
}

void AppendPumpMetrics(const PumpMetrics& pm, ExpositionWriter& w) {
  w.Histogram("setrec_pump_poll_wake_ns", "", pm.poll_wake);
  w.Histogram("setrec_pump_conn_round_trip_ns", "", pm.conn_round_trip);
  w.Gauge("setrec_pump_outbuf_high_watermark_bytes", "",
          pm.outbuf_high_watermark);
  w.Counter("setrec_pump_frame_decode_failures", "",
            pm.frame_decode_failures);
  w.Counter("setrec_pump_stat_requests", "", pm.stat_requests);
  w.Counter("setrec_pump_trace_requests", "", pm.trace_requests);
  w.Histogram("setrec_pump_away_from_poll_ns", "", pm.away_from_poll);
  w.Histogram("setrec_pump_ready_fds_per_wakeup", "", pm.ready_per_wakeup);
  w.Counter("setrec_pump_poll_wakeups", "", pm.poll_wakeups);
  w.Counter("setrec_pump_handshake_timeouts", "", pm.handshake_timeouts);
  w.Counter("setrec_pump_idle_timeouts", "", pm.idle_timeouts);
}

void AppendRates(const RateRing::Rates& rates, ExpositionWriter& w) {
  w.Rate("setrec_sessions_per_sec", "", rates.sessions_per_sec);
  w.Rate("setrec_bytes_per_sec", "", rates.bytes_per_sec);
  w.Rate("setrec_decode_failures_per_min", "", rates.decode_failures_per_min);
  w.Rate("setrec_rate_window_seconds", "",
         static_cast<double>(rates.span_ns) / 1e9);
}

}  // namespace setrec::obs
