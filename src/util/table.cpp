#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

namespace pprophet::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_rule() { rows_.emplace_back(); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_rule = [&] {
    os << '+';
    for (const std::size_t w : widths) {
      os << std::string(w + 2, '-') << '+';
    }
    os << '\n';
  };
  const auto print_cells = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& s = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << s << std::string(widths[c] - s.size() + 1, ' ') << '|';
    }
    os << '\n';
  };
  print_rule();
  print_cells(header_);
  print_rule();
  for (const auto& row : rows_) {
    if (row.empty()) {
      print_rule();
    } else {
      print_cells(row);
    }
  }
  print_rule();
}

std::string fmt_f(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_i(long long v) {
  char raw[32];
  std::snprintf(raw, sizeof raw, "%lld", v);
  std::string digits = raw;
  const bool negative = !digits.empty() && digits[0] == '-';
  if (negative) digits.erase(digits.begin());
  std::string out;
  int since_sep = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since_sep == 3) {
      out.push_back(',');
      since_sep = 0;
    }
    out.push_back(*it);
    ++since_sep;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string fmt_bytes(unsigned long long bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f %s", v, kUnits[u]);
  return buf;
}

}  // namespace pprophet::util
