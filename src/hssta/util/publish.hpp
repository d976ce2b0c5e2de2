/// \file publish.hpp
/// util::publish_file — all-or-nothing file publication.

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace hssta::util {

/// Publish `target` from whatever `write` puts on the stream: write a temp
/// file next to it, `.tmp-<name>-<pid>-<n>` (unique per process and call,
/// so concurrent writers never collide), then rename it over `target`.
/// Readers see the old file or the complete new one, never a torn write;
/// the last writer wins. On any failure the temp file is removed and the
/// error (hssta::Error, or whatever `write` threw) propagates.
void publish_file(const std::string& target,
                  const std::function<void(std::ostream&)>& write);

}  // namespace hssta::util
