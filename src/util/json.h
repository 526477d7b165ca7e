/**
 * @file
 * Minimal JSON value, recursive-descent parser, and emit helpers.
 *
 * Shared by the tools that read the repo's own machine-readable
 * artifacts (perfdiff over exp::Report files, fuzzcheck over corpus
 * repro files) and by the writers that produce them. The parser covers
 * the JSON subset those writers emit — no surrogate-pair escapes — and
 * is not a general-purpose JSON library.
 */

#ifndef PHOENIX_UTIL_JSON_H
#define PHOENIX_UTIL_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace phoenix::util {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object field lookup; nullptr when absent or not an object. */
    const JsonValue *field(const std::string &name) const;

    /** Dotted-path lookup, e.g. "plan_seconds.mean". */
    const JsonValue *path(const std::string &dotted) const;

    /** Field's number, or @p fallback when absent / not a number. */
    double numberAt(const std::string &dotted, double fallback = 0.0) const;

    /** Field's string, or @p fallback when absent / not a string. */
    std::string stringAt(const std::string &dotted,
                         const std::string &fallback = "") const;

    /**
     * This value as an integer in [@p lo, @p hi]; nullopt when it is
     * not a number, or is non-finite, non-integral or out of range.
     * Checked before any conversion, so hostile input never reaches an
     * undefined double -> integer cast.
     */
    std::optional<int64_t> integer(int64_t lo, int64_t hi) const;

    /**
     * Field as an integer in [@p lo, @p hi] (see integer()), or
     * @p fallback when the field is absent; nullopt when it is present
     * but not such an integer.
     */
    std::optional<int64_t> integerAt(const std::string &dotted, int64_t lo,
                                     int64_t hi, int64_t fallback) const;

    /**
     * Field as a finite number in [@p lo, @p hi], or @p fallback when
     * the field is absent; nullopt when it is present but not a
     * number, or is non-finite or out of range.
     */
    std::optional<double> realAt(const std::string &dotted, double lo,
                                 double hi, double fallback) const;
};

/**
 * Parse @p text into @p out. Returns false on malformed input or
 * trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out);

/** Escape and quote a string as a JSON literal. */
std::string jsonQuote(const std::string &text);

/** Shortest round-trippable JSON rendering of a double (inf/nan ->
 * null, since JSON has neither). */
std::string jsonNumber(double value);

} // namespace phoenix::util

#endif // PHOENIX_UTIL_JSON_H
