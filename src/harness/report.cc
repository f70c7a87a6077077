#include "harness/report.h"

#include <cstdio>
#include <fstream>

#include "util/json.h"

namespace epx::harness {
namespace {

std::string header_text(const std::string& title) {
  return "\n==== " + title + " ====\n";
}

template <typename Column>
void append_column_headers(std::string* out, const std::vector<Column>& columns) {
  appendf(*out, "%6s", "t(s)");
  for (const auto& c : columns) appendf(*out, " %12s", c.label.c_str());
  *out += '\n';
}

/// Cell of a window that aged out of its instrument's ring: unknown,
/// which is not the same as zero.
void append_aged_out(std::string* out, bool* any_aged_out) {
  appendf(*out, " %12s", "-");
  *any_aged_out = true;
}

void append_aged_out_note(std::string* out, bool any_aged_out) {
  if (!any_aged_out) return;
  appendf(*out,
          "(-: aged out of the newest %zu windows kept in memory; "
          "--telemetry-out records the whole run)\n",
          WindowRing<uint64_t>::kCapacity);
}

}  // namespace

void print_header(const std::string& title) {
  std::fputs(header_text(title).c_str(), stdout);
}

std::string render_rate_table(const obs::MetricsRegistry& metrics,
                              const std::string& title,
                              const std::vector<RateColumn>& columns, Tick from,
                              Tick to) {
  std::string out = header_text(title);
  append_column_headers(&out, columns);
  bool aged_out = false;
  for (Tick t = from; t < to; t += kSecond) {
    const auto idx = static_cast<size_t>(t / kSecond);
    appendf(out, "%6lld", static_cast<long long>(t / kSecond));
    for (const auto& c : columns) {
      const obs::Counter* counter = metrics.find_counter(c.metric);
      if (counter != nullptr && idx < counter->series().first_retained()) {
        append_aged_out(&out, &aged_out);
        continue;
      }
      const double rate = counter != nullptr ? counter->series().rate_at(idx) : 0.0;
      appendf(out, " %12.1f", rate * c.scale);
    }
    out += '\n';
  }
  append_aged_out_note(&out, aged_out);
  return out;
}

void print_rate_table(const obs::MetricsRegistry& metrics, const std::string& title,
                      const std::vector<RateColumn>& columns, Tick from, Tick to) {
  std::fputs(render_rate_table(metrics, title, columns, from, to).c_str(), stdout);
}

std::string render_cpu_table(const obs::MetricsRegistry& metrics,
                             const std::string& title,
                             const std::vector<CpuColumn>& columns, Tick from,
                             Tick to) {
  std::string out = header_text(title);
  append_column_headers(&out, columns);
  bool aged_out = false;
  for (Tick t = from; t < to; t += kSecond) {
    const auto idx = static_cast<size_t>(t / kSecond);
    appendf(out, "%6lld", static_cast<long long>(t / kSecond));
    for (const auto& c : columns) {
      const obs::Counter* busy = metrics.find_counter(c.metric);
      if (busy != nullptr && idx < busy->series().first_retained()) {
        append_aged_out(&out, &aged_out);
        continue;
      }
      const double util =
          busy != nullptr
              ? static_cast<double>(busy->series().total_in(t, t + kSecond)) /
                    static_cast<double>(kSecond) * 100.0
              : 0.0;
      appendf(out, " %11.1f%%", util);
    }
    out += '\n';
  }
  append_aged_out_note(&out, aged_out);
  return out;
}

void print_cpu_table(const obs::MetricsRegistry& metrics, const std::string& title,
                     const std::vector<CpuColumn>& columns, Tick from, Tick to) {
  std::fputs(render_cpu_table(metrics, title, columns, from, to).c_str(), stdout);
}

std::string render_latency_table(const obs::MetricsRegistry& metrics,
                                 const std::string& title,
                                 const std::vector<LatencyColumn>& columns,
                                 Tick from, Tick to) {
  std::string out = header_text(title);
  append_column_headers(&out, columns);
  bool aged_out = false;
  for (Tick t = from; t < to; t += kSecond) {
    const auto idx = static_cast<size_t>(t / kSecond);
    appendf(out, "%6lld", static_cast<long long>(t / kSecond));
    for (const auto& c : columns) {
      const obs::Timer* timer = metrics.find_timer(c.metric);
      if (timer != nullptr && idx < timer->first_retained()) {
        append_aged_out(&out, &aged_out);
        continue;
      }
      double ms = 0.0;
      const Histogram* h =
          timer == nullptr ? nullptr : timer->window_at(idx);
      if (h != nullptr) {
        ms = to_millis(h->quantile(c.quantile));
      }
      appendf(out, " %12.2f", ms);
    }
    out += '\n';
  }
  append_aged_out_note(&out, aged_out);
  return out;
}

void print_latency_table(const obs::MetricsRegistry& metrics, const std::string& title,
                         const std::vector<LatencyColumn>& columns, Tick from,
                         Tick to) {
  std::fputs(render_latency_table(metrics, title, columns, from, to).c_str(), stdout);
}

std::string render_stage_table(const obs::MetricsRegistry& metrics,
                               const std::string& title,
                               const std::vector<StageRow>& rows) {
  std::string out = header_text(title);
  appendf(out, "%-22s %12s %12s %12s\n", "stage", "count", "p50(ms)", "p99(ms)");
  for (const auto& row : rows) {
    const obs::Timer* timer = metrics.find_timer(row.metric);
    uint64_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    if (timer != nullptr) {
      count = timer->total().count();
      p50 = to_millis(timer->total().quantile(0.50));
      p99 = to_millis(timer->total().quantile(0.99));
    }
    appendf(out, "%-22s %12llu %12.3f %12.3f\n", row.label.c_str(),
            static_cast<unsigned long long>(count), p50, p99);
  }
  return out;
}

void print_stage_table(const obs::MetricsRegistry& metrics, const std::string& title,
                       const std::vector<StageRow>& rows) {
  std::fputs(render_stage_table(metrics, title, rows).c_str(), stdout);
}

std::vector<StageRow> default_stage_rows() {
  return {
      {"propose-wait", "span.propose_wait"},
      {"quorum-wait", "span.quorum_wait"},
      {"durable-wait", "span.durable_wait"},
      {"learn-wait", "span.learn_wait"},
      {"merge-skew-wait", "merge.skew_wait"},
      {"apply", "span.apply"},
      {"end-to-end", "span.e2e"},
  };
}

void print_phase_averages(const obs::MetricsRegistry& metrics, const std::string& title,
                          const std::string& metric,
                          const std::vector<Tick>& boundaries, Tick end) {
  print_header(title);
  const obs::Counter* counter = metrics.find_counter(metric);
  static const WindowedCounter kEmpty;
  const auto phases =
      phase_averages(counter != nullptr ? counter->series() : kEmpty, boundaries, end);
  for (size_t i = 0; i < phases.size(); ++i) {
    std::printf("phase %zu  [%5.1fs, %5.1fs)  avg %10.1f ops/s\n", i + 1,
                to_seconds(phases[i].from), to_seconds(phases[i].to), phases[i].rate);
  }
}

void paper_check(const std::string& id, const std::string& claim, bool pass,
                 const std::string& measured) {
  std::printf("PAPER-CHECK %-28s %s | paper: %s | measured: %s\n", id.c_str(),
              pass ? "PASS" : "FAIL", claim.c_str(), measured.c_str());
}

bool write_json_snapshot(const obs::MetricsRegistry& metrics, const std::string& path,
                         bool include_series) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics.to_json(include_series) << '\n';
  return static_cast<bool>(out);
}

}  // namespace epx::harness
