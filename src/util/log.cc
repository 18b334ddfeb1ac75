#include "src/util/log.h"

#include <atomic>
#include <cstring>

namespace hib {

namespace {
std::atomic<LogLevel>& LevelStore() {
  // Output-only knob: set before any shard runs, relaxed loads thereafter.
  // It never feeds simulation state, so it cannot break shard determinism.
  static std::atomic<LogLevel> level{LogLevel::kWarning};
  return level;
}
}  // namespace

LogLevel GlobalLogLevel() { return LevelStore().load(std::memory_order_relaxed); }

void SetGlobalLogLevel(LogLevel level) {
  LevelStore().store(level, std::memory_order_relaxed);
}

namespace {
const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >= static_cast<int>(GlobalLogLevel())) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::cerr << stream_.str();
  }
}

}  // namespace hib
