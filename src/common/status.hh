/**
 * @file
 * Recoverable-error vocabulary for the harness: a Status/Result<T>
 * layer between "everything worked" and the fatal()/panic() endgame
 * in logging.hh.
 *
 * The split of responsibilities:
 *
 *   - Status / Result<T> -- a condition the *caller* can reasonably
 *     recover from (a corrupt snapshot file degrades to a cold-start
 *     recompute, a failing scheduler cell is retried and then marked
 *     failed while the rest of the sweep completes).
 *   - RecoverableError -- the same condition crossing a stack that
 *     was not written in Result style (ByteReader decode paths,
 *     ThreadPool task bodies); it carries a Status and is caught at
 *     the containment boundary (snapshot loads, scheduler cells),
 *     never leaks to main().
 *   - fatal()/panic() -- still the right answer for misuse and for
 *     program-invariant violations; nothing here replaces them.
 */

#ifndef SEQPOINT_COMMON_STATUS_HH
#define SEQPOINT_COMMON_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace seqpoint {

/** Classification of a recoverable failure. */
enum class ErrorCode {
    Ok = 0,          ///< No error (the default Status()).
    IoError,         ///< File unreadable/unwritable, short read/write.
    Corruption,      ///< Artifact fails validation (checksum, bounds,
                     ///< structural decode, identity under the name).
    VersionMismatch, ///< Artifact written by another build.
    CellFailed,      ///< A scheduler cell failed after its retries.
    Timeout,         ///< An operation exceeded its deadline.
    Overloaded,      ///< Admission control shed the request (queue
                     ///< full or service draining).
    Cancelled,       ///< The caller explicitly cancelled the work.
};

/** @return Stable lower-case name of an error code ("io_error"...). */
inline const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok: return "ok";
      case ErrorCode::IoError: return "io_error";
      case ErrorCode::Corruption: return "corruption";
      case ErrorCode::VersionMismatch: return "version_mismatch";
      case ErrorCode::CellFailed: return "cell_failed";
      case ErrorCode::Timeout: return "timeout";
      case ErrorCode::Overloaded: return "overloaded";
      case ErrorCode::Cancelled: return "cancelled";
    }
    return "unknown";
}

/**
 * Outcome of an operation that may fail recoverably: either OK or an
 * (ErrorCode, message) pair. Cheap to copy when OK (empty message).
 */
class [[nodiscard]] Status
{
  public:
    /** OK status (Status() is the OK value). */
    Status() = default;

    /**
     * An error status.
     *
     * @param code Error classification (must not be Ok).
     * @param message Human-readable description.
     */
    static Status
    error(ErrorCode code, std::string message)
    {
        panic_if(code == ErrorCode::Ok,
                 "Status::error: Ok is not an error code");
        Status s;
        s.code_ = code;
        s.message_ = std::move(message);
        return s;
    }

    /** @return True when no error is held. */
    bool ok() const { return code_ == ErrorCode::Ok; }

    /** @return The error classification (Ok when ok()). */
    ErrorCode code() const { return code_; }

    /** @return The error message ("" when ok()). */
    const std::string &message() const { return message_; }

    /** @return "ok" or "<code_name>: <message>". */
    std::string
    toString() const
    {
        if (ok())
            return "ok";
        return std::string(errorCodeName(code_)) + ": " + message_;
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * The recoverable-failure exception: a Status in flight through code
 * that is not written in Result style. Thrown by fault-injection
 * points and by recoverable-mode decoders; caught (and converted back
 * to Status) at containment boundaries.
 */
class RecoverableError : public std::runtime_error
{
  public:
    /**
     * Wrap a status.
     *
     * @param status Error to carry (must not be ok).
     */
    explicit RecoverableError(Status status)
        : std::runtime_error(status.toString()),
          status_(std::move(status))
    {
        panic_if(status_.ok(), "RecoverableError: status is ok");
    }

    /** @return The carried status. */
    const Status &status() const { return status_; }

  private:
    Status status_;
};

/**
 * Value-or-Status: the result of an operation that either produces a
 * T or fails recoverably. An OK Result always holds a value; an error
 * Result never does.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    /** OK result holding a value. */
    Result(T value) : value_(std::move(value)) {}

    /** Error result (status must not be ok). */
    Result(Status status) : status_(std::move(status))
    {
        panic_if(status_.ok(),
                 "Result: error constructor given an OK status");
    }

    /** @return True when a value is held. */
    bool ok() const { return status_.ok(); }

    /** @return The status (OK when a value is held). */
    const Status &status() const { return status_; }

    /** @return The held value; misuse panic when !ok(). */
    const T &
    value() const
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 status_.toString().c_str());
        return *value_;
    }

    /** @return The held value (mutable); misuse panic when !ok(). */
    T &
    value()
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 status_.toString().c_str());
        return *value_;
    }

    /** @return The value moved out; misuse panic when !ok(). */
    T &&
    take()
    {
        panic_if(!ok(), "Result::take() on error: %s",
                 status_.toString().c_str());
        return std::move(*value_);
    }

    /** @return The held value, or `fallback` on error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace seqpoint

#endif // SEQPOINT_COMMON_STATUS_HH
