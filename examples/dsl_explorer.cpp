// DSL explorer: parse, run, trace, and analyze programs of any registered
// domain.
//
//   $ ./dsl_explorer                                  # built-in demo
//   $ ./dsl_explorer --program="SORT | REVERSE | HEAD" --input=5,3,8
//   $ ./dsl_explorer --list-functions [--domain=str]
//   $ ./dsl_explorer --domain=str --program="STR.TITLE | STR.INITIALS"
//                    --text="ada lovelace"
#include <cstdio>
#include <exception>
#include <sstream>

#include "dsl/dce.hpp"
#include "dsl/domain.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "util/argparse.hpp"

using namespace netsyn;

namespace {

std::vector<std::int32_t> parseIntList(const std::string& text) {
  std::vector<std::int32_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<std::int32_t>(std::stol(item)));
  }
  return out;
}

void show(const dsl::Domain& domain, const dsl::Program& program,
          const std::vector<dsl::Value>& inputs) {
  std::printf("Program: %s\n", program.toString().c_str());
  const auto sig = dsl::signatureOf(inputs);
  std::printf("Inputs :");
  for (const auto& v : inputs)
    std::printf(" %s", dsl::renderValue(domain, v).c_str());
  std::printf("\nEffective length: %zu of %zu%s\n",
              dsl::effectiveLength(program, sig), program.length(),
              dsl::isFullyLive(program, sig) ? " (fully live)" : "");

  const auto result = dsl::run(program, inputs);
  for (std::size_t k = 0; k < result.trace.size(); ++k) {
    std::printf("  %2zu. %-15s -> %s\n", k + 1,
                dsl::functionInfo(program.at(k)).name,
                dsl::renderValue(domain, result.trace[k]).c_str());
  }
  std::printf("Output : %s\n",
              dsl::renderValue(domain, result.output()).c_str());

  const auto cleaned = dsl::eliminateDeadCode(program, sig);
  if (cleaned.length() != program.length())
    std::printf("After DCE: %s\n", cleaned.toString().c_str());
}

}  // namespace

// The real body; main() wraps it so flag-parse errors (bad --lengths,
// non-numeric --budget, unknown --domain...) print their message instead of
// tearing the process down through std::terminate.
int run(int argc, char** argv) {
  const util::ArgParse args(argc, argv);

  const std::string domainName = args.getString("domain", "list");
  const dsl::Domain* domainPtr = dsl::findDomain(domainName);
  if (!domainPtr) {
    std::fprintf(stderr, "unknown --domain '%s' (expected one of: %s)\n",
                 domainName.c_str(), dsl::knownDomainNames().c_str());
    return 1;
  }
  const dsl::Domain& domain = *domainPtr;

  if (args.getBool("list-functions", false)) {
    std::printf("domain '%s': %s\n", domain.name.c_str(),
                domain.summary.c_str());
    std::printf("%-4s %-15s %-20s\n", "#", "name", "signature");
    for (std::size_t i = 0; i < domain.vocabSize(); ++i) {
      const auto& info = dsl::functionInfo(domain.vocabulary[i]);
      std::string sig;
      for (std::size_t a = 0; a < info.arity; ++a) {
        if (a) sig += ", ";
        sig += dsl::typeName(info.argTypes[a]);
      }
      sig += " -> " + dsl::typeName(info.returnType);
      // The paper's 1-based number for list ops; local index otherwise.
      std::printf("%-4d %-15s %-20s\n",
                  info.paperNumber ? int(info.paperNumber) : int(i),
                  info.name, sig.c_str());
    }
    return 0;
  }

  std::vector<dsl::Value> inputs;
  if (args.has("text")) {
    const std::string text = args.getString("text", "");
    inputs.push_back(dsl::Value(std::vector<std::int32_t>(text.begin(),
                                                          text.end())));
    if (args.has("int-input")) {
      inputs.push_back(dsl::Value(
          static_cast<std::int32_t>(args.getInt("int-input", 0))));
    }
  } else if (args.has("input")) {
    inputs.push_back(dsl::Value(parseIntList(args.getString("input", ""))));
    if (args.has("int-input")) {
      inputs.push_back(dsl::Value(
          static_cast<std::int32_t>(args.getInt("int-input", 0))));
    }
  } else if (domain.textual) {
    const std::string demo = "the quick brown fox";
    inputs.push_back(dsl::Value(std::vector<std::int32_t>(demo.begin(),
                                                          demo.end())));
  } else {
    inputs.push_back(dsl::Value(std::vector<std::int32_t>{-2, 10, 3, -4, 5, 2}));
  }

  if (args.has("program")) {
    const auto program = dsl::Program::fromString(args.getString("program", ""));
    if (!program) {
      std::fprintf(stderr,
                   "could not parse --program (try --list-functions)\n");
      return 1;
    }
    show(domain, *program, inputs);
    return 0;
  }

  // Demo: a fixed showcase program for the domain, then a random one.
  if (domain.textual) {
    std::printf("=== String-domain example ===\n");
    show(domain,
         *dsl::Program::fromString("STR.TITLE | STR.INITIALS | STR.LOWER"),
         inputs);
  } else {
    std::printf("=== Paper Table 1 example ===\n");
    show(domain,
         *dsl::Program::fromString("FILTER(>0) | MAP(*2) | SORT | REVERSE"),
         inputs);
  }

  std::printf("\n=== Random fully-live program ===\n");
  util::Rng rng(static_cast<std::uint64_t>(args.getInt("seed", 42)));
  const dsl::Generator gen(domain);
  const auto random =
      gen.randomProgram(5, dsl::signatureOf(inputs), rng);
  if (random) show(domain, *random, inputs);
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
