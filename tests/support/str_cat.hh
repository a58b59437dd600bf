/**
 * @file
 * strCat: concatenate string pieces and integers into one std::string.
 *
 * Tests and benches build labels such as "c3-17" with this helper, not
 * with "c" + std::to_string(c) + ...: GCC 12 at -O3 inlines that
 * operator+(const char *, std::string &&) and reports a false -Wrestrict
 * on it (Timestamp::toString sidesteps the same warning with snprintf).
 */

#ifndef HERMES_TESTS_SUPPORT_STR_CAT_HH
#define HERMES_TESTS_SUPPORT_STR_CAT_HH

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace hermes::test
{

namespace detail
{

inline void
appendPart(std::string &out, std::string_view part)
{
    out.append(part);
}

template <std::integral T>
void
appendPart(std::string &out, T part)
{
    char buf[24];
    const char *end = std::to_chars(buf, buf + sizeof(buf), part).ptr;
    out.append(buf, static_cast<size_t>(end - buf));
}

} // namespace detail

template <typename... Parts>
std::string
strCat(const Parts &...parts)
{
    std::string out;
    (detail::appendPart(out, parts), ...);
    return out;
}

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_STR_CAT_HH
