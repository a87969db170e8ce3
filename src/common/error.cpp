#include "common/error.hpp"

namespace cosmo::detail {

void throw_invalid_argument(const char* msg) { throw InvalidArgument(msg); }
void throw_format_error(const char* msg) { throw FormatError(msg); }

}  // namespace cosmo::detail
