#pragma once

#include <string_view>

namespace names {
inline constexpr std::string_view kFixtureRegistered = "fixture.registered";
inline constexpr std::string_view kFixtureUnregistered = "fixture.unregistered";
}  // namespace names
