#include "lp/lp_format.h"

#include <cctype>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "common/strings.h"

namespace etransform::lp {

namespace {

// ---------------------------------------------------------------- writer --

bool valid_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '#';
}

/// Produces LP-format-safe, unique names for a sequence of raw names.
class NameSanitizer {
 public:
  explicit NameSanitizer(char fallback_prefix)
      : fallback_prefix_(fallback_prefix) {}

  std::string sanitize(const std::string& raw) {
    std::string name;
    name.reserve(raw.size());
    for (const char c : raw) {
      name.push_back(valid_name_char(c) ? c : '_');
    }
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])) != 0 ||
        name[0] == '.') {
      name.insert(name.begin(), fallback_prefix_);
    }
    // "e12"-style names are ambiguous with exponents in the LP format.
    if ((name[0] == 'e' || name[0] == 'E') && name.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(name[1])) != 0) {
      name.insert(name.begin(), fallback_prefix_);
    }
    std::string candidate = name;
    int suffix = 1;
    while (!used_.insert(candidate).second) {
      candidate = name + "_" + std::to_string(suffix++);
    }
    return candidate;
  }

 private:
  char fallback_prefix_;
  std::unordered_set<std::string> used_;
};

void write_expression(std::ostream& out, const std::vector<Term>& terms,
                      const std::vector<std::string>& names, double constant) {
  bool first = true;
  int on_line = 0;
  for (const Term& t : terms) {
    const double magnitude = std::abs(t.coef);
    if (first) {
      out << (t.coef < 0 ? "- " : "");
      first = false;
    } else {
      out << (t.coef < 0 ? " - " : " + ");
    }
    if (magnitude != 1.0) out << format_round_trip(magnitude) << ' ';
    out << names[static_cast<std::size_t>(t.var)];
    if (++on_line % 8 == 0) out << "\n    ";
  }
  if (constant != 0.0 || first) {
    if (!first) out << (constant < 0 ? " - " : " + ");
    else if (constant < 0) out << "- ";
    out << format_round_trip(std::abs(constant));
  }
}

// ---------------------------------------------------------------- parser --

enum class TokenKind { kName, kNumber, kOperator, kColon, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0.0;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("LP parse error at line " + std::to_string(current_.line) +
                     ": " + message);
  }

 private:
  void advance() {
    skip_space_and_comments();
    current_.line = line_;
    if (pos_ >= text_.size()) {
      current_ = Token{TokenKind::kEnd, "", 0.0, line_};
      return;
    }
    const char c = text_[pos_];
    if (c == ':') {
      ++pos_;
      current_ = Token{TokenKind::kColon, ":", 0.0, line_};
      return;
    }
    if (c == '+' || c == '-') {
      ++pos_;
      current_ = Token{TokenKind::kOperator, std::string(1, c), 0.0, line_};
      return;
    }
    if (c == '<' || c == '>' || c == '=') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '=') {
        op.push_back('=');
        ++pos_;
      }
      if (op == "<") op = "<=";
      if (op == ">") op = ">=";
      current_ = Token{TokenKind::kOperator, op, 0.0, line_};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
              text_[pos_] == '.')) {
        ++pos_;
      }
      // Exponent part.
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        std::size_t look = pos_ + 1;
        if (look < text_.size() && (text_[look] == '+' || text_[look] == '-')) {
          ++look;
        }
        if (look < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[look])) != 0) {
          pos_ = look;
          while (pos_ < text_.size() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
          }
        }
      }
      const std::string lexeme = text_.substr(start, pos_ - start);
      double value = 0.0;
      try {
        value = std::stod(lexeme);
      } catch (const std::exception&) {
        fail("bad number '" + lexeme + "'");
      }
      current_ = Token{TokenKind::kNumber, lexeme, value, line_};
      return;
    }
    if (valid_name_char(c) || std::isalpha(static_cast<unsigned char>(c)) != 0) {
      const std::size_t start = pos_;
      while (pos_ < text_.size() && valid_name_char(text_[pos_])) ++pos_;
      current_ = Token{TokenKind::kName, text_.substr(start, pos_ - start), 0.0,
                       line_};
      return;
    }
    throw ParseError("LP parse error at line " + std::to_string(line_) +
                     ": unexpected character '" + std::string(1, c) + "'");
  }

  void skip_space_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '\\') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

/// Checks (without consuming input) whether the lexer is positioned at a
/// section keyword. On a match reports the canonical section name and the
/// number of tokens the keyword spans (1, or 2 for "Subject To").
bool peek_section(const Lexer& lexer, std::string* section, int* span) {
  Lexer probe = lexer;  // Lexer is a cheap value type (reference + offsets)
  const Token token = probe.take();
  if (token.kind != TokenKind::kName) return false;
  const std::string word = to_lower(token.text);
  *span = 1;
  if (word == "minimize" || word == "minimise" || word == "min") {
    *section = "minimize";
    return true;
  }
  if (word == "maximize" || word == "maximise" || word == "max") {
    *section = "maximize";
    return true;
  }
  if (word == "subject" || word == "such") {
    const Token& next = probe.peek();
    if (next.kind == TokenKind::kName &&
        (equals_icase(next.text, "to") || equals_icase(next.text, "that"))) {
      *section = "subject_to";
      *span = 2;
      return true;
    }
    return false;
  }
  if (word == "st" || word == "s.t." || word == "st.") {
    *section = "subject_to";
    return true;
  }
  if (word == "bounds" || word == "bound") {
    *section = "bounds";
    return true;
  }
  if (word == "binary" || word == "binaries" || word == "bin") {
    *section = "binary";
    return true;
  }
  if (word == "general" || word == "generals" || word == "gen" ||
      word == "integer" || word == "integers") {
    *section = "general";
    return true;
  }
  if (word == "end") {
    *section = "end";
    return true;
  }
  return false;
}

/// Consumes a section keyword previously matched by peek_section.
void consume_section(Lexer& lexer, int span) {
  for (int i = 0; i < span; ++i) lexer.take();
}

/// True if the lexer is positioned at `name :`, i.e. the label that starts
/// the next statement (labels cannot occur inside an expression).
bool next_is_label(const Lexer& lexer) {
  Lexer probe = lexer;
  if (probe.peek().kind != TokenKind::kName) return false;
  probe.take();
  return probe.peek().kind == TokenKind::kColon;
}

struct ParsedExpression {
  std::vector<std::pair<std::string, double>> terms;
  double constant = 0.0;
};

/// Parses `[sign] [coef] [name]`* until a relational operator, section
/// keyword, or end of input.
ParsedExpression parse_expression(Lexer& lexer) {
  ParsedExpression expr;
  double sign = 1.0;
  bool pending_sign = false;
  while (true) {
    const Token& token = lexer.peek();
    if (token.kind == TokenKind::kEnd) break;
    if (token.kind == TokenKind::kOperator) {
      if (token.text == "+" || token.text == "-") {
        if (token.text == "-") sign = pending_sign ? -sign : -1.0;
        else if (!pending_sign) sign = 1.0;
        pending_sign = true;
        lexer.take();
        continue;
      }
      break;  // relational operator ends the expression
    }
    if (token.kind == TokenKind::kName) {
      std::string section;
      int span = 0;
      if (peek_section(lexer, &section, &span)) {
        if (pending_sign) {
          lexer.fail("dangling sign before section '" + section + "'");
        }
        break;  // leave the keyword for the caller
      }
      if (next_is_label(lexer)) {
        if (pending_sign) lexer.fail("dangling sign before a row label");
        break;  // `name:` starts the next statement
      }
      expr.terms.emplace_back(lexer.take().text, sign);
      sign = 1.0;
      pending_sign = false;
      continue;
    }
    if (token.kind == TokenKind::kNumber) {
      const double value = lexer.take().number;
      const Token& next = lexer.peek();
      if (next.kind == TokenKind::kName) {
        std::string section;
        int span = 0;
        if (!peek_section(lexer, &section, &span) && !next_is_label(lexer)) {
          expr.terms.emplace_back(lexer.take().text, sign * value);
          sign = 1.0;
          pending_sign = false;
          continue;
        }
      }
      expr.constant += sign * value;
      sign = 1.0;
      pending_sign = false;
      continue;
    }
    lexer.fail("unexpected token '" + token.text + "' in expression");
  }
  if (pending_sign) lexer.fail("dangling sign at end of expression");
  return expr;
}

class ModelAssembler {
 public:
  int variable(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    const int id = model_.add_variable(name, 0.0, kInfinity);
    index_.emplace(name, id);
    return id;
  }

  int find(const std::string& name, Lexer& lexer) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      lexer.fail("unknown variable '" + name + "'");
    }
    return it->second;
  }

  std::vector<Term> to_terms(const ParsedExpression& expr) {
    std::vector<Term> terms;
    terms.reserve(expr.terms.size());
    for (const auto& [name, coef] : expr.terms) {
      terms.push_back(Term{variable(name), coef});
    }
    return merge_terms(std::move(terms));
  }

  Model take() { return std::move(model_); }
  Model& model() { return model_; }

 private:
  Model model_;
  std::unordered_map<std::string, int> index_;
};

double parse_signed_bound(Lexer& lexer) {
  double sign = 1.0;
  while (lexer.peek().kind == TokenKind::kOperator &&
         (lexer.peek().text == "+" || lexer.peek().text == "-")) {
    if (lexer.take().text == "-") sign = -sign;
  }
  const Token token = lexer.take();
  if (token.kind == TokenKind::kNumber) return sign * token.number;
  if (token.kind == TokenKind::kName &&
      (equals_icase(token.text, "inf") || equals_icase(token.text, "infinity"))) {
    return sign * kInfinity;
  }
  lexer.fail("expected a bound value");
}

}  // namespace

std::string write_lp(const Model& model) {
  std::ostringstream out;
  write_lp(model, out);
  return out.str();
}

void write_lp(const Model& model, std::ostream& out) {
  model.validate();
  NameSanitizer var_names('v');
  NameSanitizer row_names('c');
  std::vector<std::string> vnames;
  vnames.reserve(static_cast<std::size_t>(model.num_variables()));
  for (const auto& v : model.variables()) {
    vnames.push_back(var_names.sanitize(v.name));
  }

  out << "\\ Generated by eTransform\n";
  out << (model.sense() == Sense::kMinimize ? "Minimize" : "Maximize") << "\n";
  out << " obj: ";
  write_expression(out, merge_terms(model.objective()), vnames,
                   model.objective_constant());
  out << "\nSubject To\n";
  for (const auto& row : model.constraints()) {
    out << ' ' << row_names.sanitize(row.name.empty() ? "c" : row.name)
        << ": ";
    const auto terms = merge_terms(row.terms);
    if (terms.empty()) {
      // The format requires at least one variable per row; emit `0 v0`.
      if (model.num_variables() == 0) {
        throw InvalidInputError("cannot write empty row with no variables");
      }
      out << "0 " << vnames[0];
    } else {
      write_expression(out, terms, vnames, 0.0);
    }
    switch (row.relation) {
      case Relation::kLessEqual: out << " <= "; break;
      case Relation::kGreaterEqual: out << " >= "; break;
      case Relation::kEqual: out << " = "; break;
    }
    out << format_round_trip(row.rhs) << "\n";
  }
  out << "Bounds\n";
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    const std::string& name = vnames[static_cast<std::size_t>(j)];
    if (v.lower == 0.0 && v.upper == kInfinity) continue;  // default
    if (v.lower == -kInfinity && v.upper == kInfinity) {
      out << ' ' << name << " free\n";
    } else if (v.lower == v.upper) {
      out << ' ' << name << " = " << format_round_trip(v.lower) << "\n";
    } else {
      out << ' ';
      if (v.lower == -kInfinity) out << "-inf";
      else out << format_round_trip(v.lower);
      out << " <= " << name << " <= ";
      if (v.upper == kInfinity) out << "inf";
      else out << format_round_trip(v.upper);
      out << "\n";
    }
  }
  bool any_binary = false;
  bool any_general = false;
  for (const auto& v : model.variables()) {
    if (!v.is_integer) continue;
    if (v.lower == 0.0 && v.upper == 1.0) any_binary = true;
    else any_general = true;
  }
  if (any_binary) {
    out << "Binary\n";
    int on_line = 0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      if (v.is_integer && v.lower == 0.0 && v.upper == 1.0) {
        out << ' ' << vnames[static_cast<std::size_t>(j)];
        if (++on_line % 10 == 0) out << "\n";
      }
    }
    if (on_line % 10 != 0) out << "\n";
  }
  if (any_general) {
    out << "General\n";
    int on_line = 0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const Variable& v = model.variable(j);
      if (v.is_integer && !(v.lower == 0.0 && v.upper == 1.0)) {
        out << ' ' << vnames[static_cast<std::size_t>(j)];
        if (++on_line % 10 == 0) out << "\n";
      }
    }
    if (on_line % 10 != 0) out << "\n";
  }
  out << "End\n";
}

Model parse_lp(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_lp(buffer.str());
}

Model parse_lp(const std::string& text) {
  Lexer lexer(text);
  ModelAssembler assembler;

  // Objective section.
  std::string section;
  {
    int span = 0;
    if (!peek_section(lexer, &section, &span) ||
        (section != "minimize" && section != "maximize")) {
      lexer.fail("LP file must start with Minimize or Maximize");
    }
    consume_section(lexer, span);
  }
  const Sense sense =
      section == "minimize" ? Sense::kMinimize : Sense::kMaximize;

  // Optional objective label.
  auto skip_label = [&lexer]() {
    Lexer probe = lexer;  // cheap copy: lexer holds a reference + offsets
    if (probe.peek().kind == TokenKind::kName) {
      probe.take();
      if (probe.peek().kind == TokenKind::kColon) {
        lexer.take();
        lexer.take();
        return;
      }
    }
  };
  skip_label();
  const ParsedExpression objective = parse_expression(lexer);
  assembler.model().set_objective(sense, {}, 0.0);  // placeholder, set below

  // Expression parsing may have stopped at a section keyword.
  std::vector<Term> objective_terms = assembler.to_terms(objective);
  assembler.model().set_objective(sense, std::move(objective_terms),
                                  objective.constant);

  bool saw_end = false;
  while (!saw_end && lexer.peek().kind != TokenKind::kEnd) {
    const Token token = lexer.peek();
    int span = 0;
    if (!peek_section(lexer, &section, &span)) {
      lexer.fail("expected a section keyword, got '" + token.text + "'");
    }
    consume_section(lexer, span);
    if (section == "end") {
      saw_end = true;
      break;
    }
    if (section == "subject_to") {
      while (true) {
        const Token& next = lexer.peek();
        if (next.kind == TokenKind::kEnd) break;
        std::string probe_section;
        int probe_span = 0;
        if (next.kind == TokenKind::kName &&
            peek_section(lexer, &probe_section, &probe_span)) {
          break;
        }
        // Optional row label.
        std::string row_name = "c" + std::to_string(
                                         assembler.model().num_constraints());
        {
          Lexer probe = lexer;
          if (probe.peek().kind == TokenKind::kName) {
            const Token name_token = probe.take();
            if (probe.peek().kind == TokenKind::kColon) {
              row_name = name_token.text;
              lexer.take();
              lexer.take();
            }
          }
        }
        const ParsedExpression lhs = parse_expression(lexer);
        const Token relation = lexer.take();
        if (relation.kind != TokenKind::kOperator ||
            (relation.text != "<=" && relation.text != ">=" &&
             relation.text != "=")) {
          lexer.fail("expected <=, >= or = in constraint '" + row_name + "'");
        }
        const ParsedExpression rhs = parse_expression(lexer);
        Relation rel = Relation::kEqual;
        if (relation.text == "<=") rel = Relation::kLessEqual;
        else if (relation.text == ">=") rel = Relation::kGreaterEqual;
        std::vector<Term> terms = assembler.to_terms(lhs);
        for (const auto& [name, coef] : rhs.terms) {
          terms.push_back(Term{assembler.variable(name), -coef});
        }
        assembler.model().add_constraint(
            row_name, merge_terms(std::move(terms)), rel,
            rhs.constant - lhs.constant);
      }
      continue;
    }
    if (section == "bounds") {
      while (true) {
        const Token& next = lexer.peek();
        if (next.kind == TokenKind::kEnd) break;
        std::string probe_section;
        int probe_span = 0;
        if (next.kind == TokenKind::kName &&
            peek_section(lexer, &probe_section, &probe_span)) {
          break;
        }
        // Forms: `x free` | `x = v` | `x <= u` | `x >= l` | `l <= x [<= u]`.
        if (next.kind == TokenKind::kName) {
          Lexer probe = lexer;
          probe.take();
          const Token after = probe.peek();
          if (after.kind == TokenKind::kName &&
              equals_icase(after.text, "free")) {
            const int var = assembler.variable(lexer.take().text);
            lexer.take();
            assembler.model().set_bounds(var, -kInfinity, kInfinity);
            continue;
          }
          if (after.kind == TokenKind::kOperator &&
              (after.text == "<=" || after.text == ">=" || after.text == "=")) {
            const int var = assembler.variable(lexer.take().text);
            const std::string op = lexer.take().text;
            const double value = parse_signed_bound(lexer);
            const Variable& v = assembler.model().variable(var);
            if (op == "=") assembler.model().set_bounds(var, value, value);
            else if (op == "<=") assembler.model().set_bounds(var, v.lower, value);
            else assembler.model().set_bounds(var, value, v.upper);
            continue;
          }
          lexer.fail("malformed bound for '" + next.text + "'");
        }
        // Leading number: `l <= x [<= u]`.
        const double low = parse_signed_bound(lexer);
        const Token op1 = lexer.take();
        if (op1.kind != TokenKind::kOperator || op1.text != "<=") {
          lexer.fail("expected <= in bound");
        }
        const Token var_token = lexer.take();
        if (var_token.kind != TokenKind::kName) {
          lexer.fail("expected variable name in bound");
        }
        const int var = assembler.variable(var_token.text);
        double high = assembler.model().variable(var).upper;
        if (lexer.peek().kind == TokenKind::kOperator &&
            lexer.peek().text == "<=") {
          lexer.take();
          high = parse_signed_bound(lexer);
        }
        assembler.model().set_bounds(var, low, high);
      }
      continue;
    }
    if (section == "binary" || section == "general") {
      while (true) {
        const Token& next = lexer.peek();
        if (next.kind != TokenKind::kName) break;
        std::string probe_section;
        int probe_span = 0;
        if (peek_section(lexer, &probe_section, &probe_span)) break;
        const int var = assembler.variable(lexer.take().text);
        Model& model = assembler.model();
        if (section == "binary") {
          model.set_bounds(var, 0.0, 1.0);
        }
        model.set_integer(var, true);
      }
      continue;
    }
    lexer.fail("unhandled section '" + section + "'");
  }
  Model model = assembler.take();
  model.normalize();
  model.validate();
  return model;
}

std::string write_solution(const Model& model, const LpSolution& solution) {
  std::ostringstream out;
  out << "status " << to_string(solution.status) << "\n";
  out << "objective " << format_round_trip(solution.objective) << "\n";
  if (solution.status == SolveStatus::kOptimal) {
    for (int j = 0; j < model.num_variables(); ++j) {
      out << model.variable(j).name << ' '
          << format_round_trip(solution.values[static_cast<std::size_t>(j)])
          << "\n";
    }
  }
  return out.str();
}

SolutionFile parse_solution(const std::string& text) {
  SolutionFile file;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  bool saw_status = false;
  bool saw_objective = false;
  while (std::getline(in, line)) {
    ++line_number;
    const auto fields = split_whitespace(line);
    if (fields.empty()) continue;
    if (fields[0] == "status") {
      if (fields.size() != 2) {
        throw ParseError("solution line " + std::to_string(line_number) +
                         ": malformed status");
      }
      file.status = fields[1];
      saw_status = true;
      continue;
    }
    if (fields[0] == "objective") {
      if (fields.size() != 2) {
        throw ParseError("solution line " + std::to_string(line_number) +
                         ": malformed objective");
      }
      try {
        file.objective = std::stod(fields[1]);
      } catch (const std::exception&) {
        throw ParseError("solution line " + std::to_string(line_number) +
                         ": bad objective value");
      }
      saw_objective = true;
      continue;
    }
    if (fields.size() != 2) {
      throw ParseError("solution line " + std::to_string(line_number) +
                       ": expected 'name value'");
    }
    try {
      file.values.emplace_back(fields[0], std::stod(fields[1]));
    } catch (const std::exception&) {
      throw ParseError("solution line " + std::to_string(line_number) +
                       ": bad value for '" + fields[0] + "'");
    }
  }
  if (!saw_status || !saw_objective) {
    throw ParseError("solution file missing status/objective header");
  }
  return file;
}

}  // namespace etransform::lp
