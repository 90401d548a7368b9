#include "util/file_io.h"

#include <cstdio>

#include "util/string_util.h"

namespace flexmoe {

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_rc = std::fclose(f);
  if (written != contents.size() || close_rc != 0) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Internal(StrFormat("read error on '%s'", path.c_str()));
  }
  return contents;
}

}  // namespace flexmoe
