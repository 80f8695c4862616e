// Proposition: the paper's Fig. 1 interface.
//
// SCTC checks properties "which include complex structures using a base class
// Proposition. This class allows wrapping arbitrary source code entities as
// named objects." A subclass provides is_true(); the checker evaluates every
// registered proposition once per temporal step and feeds the values into the
// Boolean layer of the property monitors. Propositions are typically
// stateless, but may carry state (see RisingEdgeProposition).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "mem/read_interface.hpp"

namespace esv::sctc {

class Proposition {
 public:
  virtual ~Proposition() = default;

  /// A proposition must evaluate to either true or false.
  virtual bool is_true() = 0;
  bool is_false() { return !is_true(); }

  /// Creates a clone of the current proposition.
  virtual std::unique_ptr<Proposition> clone() const = 0;
};

/// Wraps an arbitrary predicate.
class LambdaProposition final : public Proposition {
 public:
  explicit LambdaProposition(std::function<bool()> predicate)
      : predicate_(std::move(predicate)) {}

  bool is_true() override { return predicate_(); }

  std::unique_ptr<Proposition> clone() const override {
    return std::make_unique<LambdaProposition>(predicate_);
  }

 private:
  std::function<bool()> predicate_;
};

enum class Compare { kEq, kNe, kLt, kLe, kGt, kGe };

/// "variable at address <addr> <op> <value>" — monitors an embedded-software
/// variable stored in a microprocessor memory model, read through
/// mem::MemoryReadInterface.
class MemoryWordProposition final : public Proposition {
 public:
  MemoryWordProposition(const mem::MemoryReadInterface& memory,
                        std::uint32_t address, Compare op, std::uint32_t value)
      : memory_(&memory), address_(address), op_(op), value_(value) {}

  bool is_true() override;

  std::unique_ptr<Proposition> clone() const override {
    return std::make_unique<MemoryWordProposition>(*memory_, address_, op_,
                                                   value_);
  }

 private:
  const mem::MemoryReadInterface* memory_;
  std::uint32_t address_;
  Compare op_;
  std::uint32_t value_;
};

/// Stateful proposition example: true exactly in the step where the wrapped
/// proposition switches from false to true.
class RisingEdgeProposition final : public Proposition {
 public:
  explicit RisingEdgeProposition(std::unique_ptr<Proposition> inner)
      : inner_(std::move(inner)) {}

  bool is_true() override {
    const bool now = inner_->is_true();
    const bool rising = now && !previous_;
    previous_ = now;
    return rising;
  }

  std::unique_ptr<Proposition> clone() const override {
    auto copy = std::make_unique<RisingEdgeProposition>(inner_->clone());
    copy->previous_ = previous_;
    return copy;
  }

 private:
  std::unique_ptr<Proposition> inner_;
  bool previous_ = false;
};

}  // namespace esv::sctc
