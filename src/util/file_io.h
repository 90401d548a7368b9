// Whole-file I/O that reports failure: every write checks the byte count
// and the close, so a full disk or a bad path is a Status, never a silent
// success.

#ifndef FLEXMOE_UTIL_FILE_IO_H_
#define FLEXMOE_UTIL_FILE_IO_H_

#include <string>

#include "util/status.h"

namespace flexmoe {

/// \brief Writes `contents` to `path` (created or truncated). A failed
/// open, a short write or a failed close is an error.
Status WriteFile(const std::string& path, const std::string& contents);

/// \brief The whole contents of `path`. A missing file or a read error is
/// an error.
Result<std::string> ReadFile(const std::string& path);

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_FILE_IO_H_
