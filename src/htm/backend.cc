#include "backend.hh"

namespace htmsim::htm
{

const char*
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::htm:
        return "htm";
      case BackendKind::globalLock:
        return "lock";
      case BackendKind::idealHtm:
        return "ideal";
      case BackendKind::hybrid:
        return "hybrid";
    }
    return "unknown";
}

std::optional<BackendKind>
parseBackendKind(std::string_view name)
{
    for (const BackendKind kind :
         {BackendKind::htm, BackendKind::globalLock,
          BackendKind::idealHtm, BackendKind::hybrid}) {
        if (name == backendKindName(kind))
            return kind;
    }
    return std::nullopt;
}

} // namespace htmsim::htm
