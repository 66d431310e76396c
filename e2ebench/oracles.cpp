// Output oracles.  Each returns "" for a correct output and a one-line
// reason otherwise; callers turn a reason into one failed op.
#include <string_view>

#include "io/certificate.hpp"
#include "io/json.hpp"
#include "io/verify.hpp"
#include "perf.hpp"
#include "re/types.hpp"

namespace relb::perf {

std::string checkCertificate(const std::string& bytes) {
  if (bytes.empty()) return "no certificate";
  try {
    const io::Certificate cert = io::certificateFromJson(io::Json::parse(bytes));
    const io::VerifyReport report = io::verifyCertificate(cert);
    if (!report.ok) {
      return "certificate rejected: " +
             (report.errors.empty() ? std::string("?") : report.errors.front());
    }
  } catch (const std::exception& e) {
    return std::string("certificate unreadable: ") + e.what();
  }
  return "";
}

std::string checkBound(const std::string& output, long published) {
  if (published < 0) return "";
  constexpr std::string_view kLine = "automatic lower bound: >= ";
  const std::size_t at = output.find(kLine);
  if (at == std::string::npos) return "no automatic lower bound in output";
  const long derived = std::atol(output.c_str() + at + kLine.size());
  if (derived < published) {
    return "derived bound " + std::to_string(derived) +
           " below the published " + std::to_string(published);
  }
  return "";
}

std::string checkWarm(const ServedBytes& cold, const ServedBytes& warm,
                      std::int64_t misses) {
  if (warm.output != cold.output) return "warm output differs from cold";
  if (warm.certificate != cold.certificate) {
    return "warm certificate differs from cold";
  }
  if (misses != 0) return "warm request paid " + std::to_string(misses) + " misses";
  return "";
}

}  // namespace relb::perf
