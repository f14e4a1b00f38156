#include "telemetry/report_html.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "util/string_util.h"

namespace wtpgsched {

namespace {

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// Compact number for axis labels: %.4g covers counts and rates alike.
std::string AxisLabel(double v) { return Format("%.4g", v); }

constexpr int kChartW = 640;
constexpr int kChartH = 110;
constexpr int kPadLeft = 8;
constexpr int kPadRight = 8;
constexpr int kPadTop = 6;
constexpr int kPadBottom = 16;

// One gauge series as an inline SVG polyline chart with min/max/last labels.
void AppendChart(const std::string& name,
                 const std::vector<std::pair<double, double>>& points,
                 std::string* out) {
  std::vector<std::pair<double, double>> finite;
  finite.reserve(points.size());
  for (const auto& p : points) {
    if (std::isfinite(p.second)) finite.push_back(p);
  }
  *out += "<div class=\"chart\"><div class=\"chart-name\">";
  *out += HtmlEscape(name);
  if (finite.empty()) {
    *out += "</div><div class=\"chart-empty\">no finite samples</div></div>\n";
    return;
  }
  double t0 = finite.front().first, t1 = finite.back().first;
  double lo = finite.front().second, hi = lo;
  for (const auto& p : finite) {
    lo = std::min(lo, p.second);
    hi = std::max(hi, p.second);
  }
  *out += StrCat(" <span class=\"chart-stats\">min ", AxisLabel(lo), " · max ",
                 AxisLabel(hi), " · last ", AxisLabel(finite.back().second),
                 "</span></div>");
  const double tspan = t1 > t0 ? t1 - t0 : 1.0;
  const double vspan = hi > lo ? hi - lo : 1.0;
  const double w = kChartW - kPadLeft - kPadRight;
  const double h = kChartH - kPadTop - kPadBottom;
  *out += StrCat("<svg viewBox=\"0 0 ", kChartW, " ", kChartH, "\" width=\"",
                 kChartW, "\" height=\"", kChartH, "\">");
  *out += StrCat("<rect x=\"0\" y=\"0\" width=\"", kChartW, "\" height=\"",
                 kChartH, "\" class=\"plot\"/>");
  std::string poly;
  for (const auto& [t, v] : finite) {
    const double x = kPadLeft + (t - t0) / tspan * w;
    const double y = kPadTop + (1.0 - (v - lo) / vspan) * h;
    if (!poly.empty()) poly += ' ';
    poly += StrCat(Format("%.1f", x), ',', Format("%.1f", y));
  }
  if (finite.size() == 1) {
    *out += StrCat("<circle cx=\"", Format("%.1f", kPadLeft + w / 2),
                   "\" cy=\"", Format("%.1f", kPadTop + h / 2),
                   "\" r=\"2\" class=\"line-dot\"/>");
  } else {
    *out += StrCat("<polyline points=\"", poly, "\" class=\"line\"/>");
  }
  *out += StrCat("<text x=\"", kPadLeft, "\" y=\"", kChartH - 4,
                 "\" class=\"axis\">", AxisLabel(t0), "s</text>");
  *out += StrCat("<text x=\"", kChartW - kPadRight,
                 "\" y=\"", kChartH - 4,
                 "\" class=\"axis\" text-anchor=\"end\">", AxisLabel(t1),
                 "s</text>");
  *out += "</svg></div>\n";
}

uint64_t CounterOr0(const std::vector<std::pair<std::string, uint64_t>>& kv,
                    const std::string& name) {
  for (const auto& [k, v] : kv) {
    if (k == name) return v;
  }
  return 0;
}

bool HasCounter(const std::vector<std::pair<std::string, uint64_t>>& kv,
                const std::string& name) {
  for (const auto& [k, v] : kv) {
    (void)v;
    if (k == name) return true;
  }
  return false;
}

void AppendVerdicts(const ReportRun& run, std::string* out) {
  struct Verdict {
    const char* counter;
    const char* windows_counter;
    const char* label;
  };
  static constexpr Verdict kVerdicts[] = {
      {"health.thrashing", "health.thrashing_windows", "thrashing"},
      {"health.convoy", "health.convoy_windows", "convoy"},
      {"health.restart_storm", "health.storm_windows", "restart storm"},
  };
  *out += "<div class=\"verdicts\">";
  bool any = false;
  for (const Verdict& v : kVerdicts) {
    if (!HasCounter(run.counters, v.counter)) continue;
    any = true;
    const bool fired = CounterOr0(run.counters, v.counter) != 0;
    const uint64_t windows = CounterOr0(run.counters, v.windows_counter);
    *out += StrCat("<span class=\"badge ", fired ? "bad" : "ok", "\">",
                   v.label, ": ", fired ? "DETECTED" : "ok", " (", windows,
                   " windows)</span>");
  }
  if (!any) *out += "<span class=\"badge\">no health counters in trace</span>";
  if (!run.truncation.empty()) {
    *out += StrCat("<span class=\"badge bad\">trace.truncated: ",
                   HtmlEscape(run.truncation), "</span>");
  }
  *out += "</div>\n";
}

// Group gauges by name prefix (the text before the first '.') so the report
// collapses per subsystem: machine.*, dpn0.*, health.*, ...
std::string GaugeGroup(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::string RenderRunReport(const std::vector<ReportRun>& runs) {
  std::string html;
  html +=
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>wtpg run-health report</title>\n"
      "<style>\n"
      "body{font-family:system-ui,sans-serif;margin:2em;max-width:720px}\n"
      "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em}\n"
      ".verdicts{margin:0.6em 0}\n"
      ".badge{display:inline-block;padding:2px 8px;margin-right:6px;"
      "border-radius:10px;background:#eee;font-size:0.85em}\n"
      ".badge.ok{background:#d7f0d7}.badge.bad{background:#f6c6c6}\n"
      "details{margin:0.4em 0}summary{cursor:pointer;font-weight:600}\n"
      ".chart{margin:0.5em 0}\n"
      ".chart-name{font-size:0.85em;font-weight:600}\n"
      ".chart-stats{font-weight:400;color:#666}\n"
      ".chart-empty{color:#999;font-size:0.8em}\n"
      ".plot{fill:#fafafa;stroke:#ddd}\n"
      ".line{fill:none;stroke:#2b6cb0;stroke-width:1.2}\n"
      ".line-dot{fill:#2b6cb0}\n"
      ".axis{font-size:9px;fill:#888}\n"
      "</style></head><body>\n"
      "<h1>wtpg run-health report</h1>\n";
  for (const ReportRun& run : runs) {
    html += StrCat("<h2>", HtmlEscape(run.title), "</h2>\n");
    AppendVerdicts(run, &html);
    // Group charts by prefix; health and rate groups open by default since
    // they carry the verdict context.
    std::map<std::string, std::vector<size_t>> groups;
    for (size_t g = 0; g < run.gauge_names.size(); ++g) {
      groups[GaugeGroup(run.gauge_names[g])].push_back(g);
    }
    if (groups.empty()) {
      html += "<p class=\"chart-empty\">no gauge series in this run</p>\n";
    }
    for (const auto& [group, indices] : groups) {
      const bool open = group == "health" || group == "rate";
      html += StrCat("<details", open ? " open" : "", "><summary>",
                     HtmlEscape(group), " (", indices.size(),
                     ")</summary>\n");
      for (size_t g : indices) {
        AppendChart(run.gauge_names[g], run.series[g], &html);
      }
      html += "</details>\n";
    }
  }
  html += "</body></html>\n";
  return html;
}

Status WriteRunReport(const std::vector<ReportRun>& runs,
                      const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal(StrCat("cannot open ", path, " for writing"));
  }
  out << RenderRunReport(runs);
  out.flush();
  if (!out.good()) return Status::Internal(StrCat("write failed: ", path));
  return Status::Ok();
}

}  // namespace wtpgsched
