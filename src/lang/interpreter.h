#ifndef ORION_LANG_INTERPRETER_H_
#define ORION_LANG_INTERPRETER_H_

#include <string>
#include <string_view>
#include <unordered_map>

#include "core/database.h"
#include "lang/sexpr.h"

namespace orion {

/// Evaluator for the paper's ORION message syntax (§2.3, §3).
///
/// Supported forms (square brackets = optional):
///
///   (make-class 'Name [:superclasses (A B)] [:versionable true]
///               [:attributes ((Attr :domain D | (set-of D)
///                              [:composite true] [:exclusive true|nil]
///                              [:dependent true|nil] [:init v]
///                              [:document "..."]) ...)])
///   (make Class [:parent ((obj attr) ...)] [:Attr value ...])
///   (define name expr)                      bind a variable
///   (get obj attr) / (set obj attr value)
///   (delete obj)                            Deletion Rule / version rules
///   (components-of obj [:classes (C ...)] [:exclusive true]
///                  [:shared true] [:level n])
///   (parents-of obj ...) (ancestors-of obj ...)
///   (component-of o1 o2) (child-of o1 o2)
///   (exclusive-component-of o1 o2) (shared-component-of o1 o2)
///   (compositep Class [attr]) (exclusive-compositep Class [attr])
///   (shared-compositep Class [attr]) (dependent-compositep Class [attr])
///   (derive v) (versions-of g) (generic-of v) (resolve ref)
///   (set-default-version g v) (default-version g)
///   (grant-on-object user obj "sR") (grant-on-class user Class "w~W")
///   (check-access user obj R|W)
///   (exists obj) (print expr)
///
/// Truth values follow the paper: `true`/`t` and `nil`.  Evaluation maps
/// them to Value::Integer(1) and Value::Null.
class Interpreter {
 public:
  explicit Interpreter(Database* db) : db_(db) {}

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Evaluates every form; returns the value of the last one.
  Result<Value> EvalString(std::string_view source);

  /// Evaluates one expression.
  Result<Value> Eval(const Sexpr& expr);

  /// Value bound to `name`, or NotFound.
  Result<Value> Lookup(const std::string& name) const;

  /// Parses a `(select ...)` predicate expression into a query tree — the
  /// same grammar the `select` form accepts (comparisons, and/or/not,
  /// path, part-of).  Public for callers that plan the query themselves
  /// (the RPC server parses the predicate here, then runs it through
  /// `Cluster::Select`); evaluation of embedded values uses this
  /// interpreter's environment.
  Result<QueryPtr> ParseQueryExpr(const Sexpr& expr) {
    return ParseQuery(expr);
  }

  /// Binds `name` in the global environment.
  void Bind(std::string name, Value value) {
    env_[std::move(name)] = std::move(value);
  }

  Database* db() { return db_; }

 private:
  Result<QueryPtr> ParseQuery(const Sexpr& expr);
  Result<Value> EvalMakeClass(const Sexpr& form);
  Result<Value> EvalMake(const Sexpr& form);
  Result<Value> EvalTraversal(const Sexpr& form, const std::string& op);
  Result<Value> EvalPredicate(const Sexpr& form, const std::string& op);
  Result<Value> EvalClassPredicate(const Sexpr& form, const std::string& op);

  Result<Uid> EvalToUid(const Sexpr& expr);
  Result<ClassId> EvalToClass(const Sexpr& expr);

  Database* db_;
  std::unordered_map<std::string, Value> env_;
};

}  // namespace orion

#endif  // ORION_LANG_INTERPRETER_H_
