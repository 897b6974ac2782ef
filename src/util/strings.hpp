// Small string helpers used by the constraints parser, code generators and
// report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pdr {

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view s);

/// printf-style formatting into std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "12.3 KiB" / "4.0 MiB" style human-readable byte counts.
std::string human_bytes(std::uint64_t bytes);

/// Sanitizes an arbitrary name into a VHDL/C identifier (alnum + '_').
std::string identifier(std::string_view name);

}  // namespace pdr
