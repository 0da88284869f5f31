// raw-getenv fixture: an environment read outside the core/env.h
// helpers (must fire exactly once).
#include <cstdlib>

bool
badGetenv()
{
    return std::getenv("MQX_FIXTURE") != nullptr;
}
